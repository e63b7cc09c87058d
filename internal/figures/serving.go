package figures

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/synth"
)

// ServingPoint is one workload's cold/warm explain-all measurement: the
// full serving request (reason + explain every answer) against a cache-cold
// pipeline versus the memoized serving path (result cache, proof-closure
// memo, explanation memo).
type ServingPoint struct {
	// Workload names the measured workload (an app registry name, or the
	// synthetic scaled instance).
	Workload string `json:"workload"`
	// App is the application registry name the workload runs on.
	App string `json:"app"`
	// Facts is the extensional database size of the request.
	Facts int `json:"facts"`
	// Answers is the number of explained answers per request.
	Answers int `json:"answers"`
	// ColdSeconds is the mean uncached request latency.
	ColdSeconds float64 `json:"coldSeconds"`
	// WarmSeconds is the mean cached request latency.
	WarmSeconds float64 `json:"warmSeconds"`
	// Speedup is ColdSeconds / WarmSeconds.
	Speedup float64 `json:"speedup"`
}

// servingWorkloads are the measured serving requests: every bundled
// application on its representative scenario, plus a scaled synthetic
// control chain as the largest instance (60 hops: ~1.8k answers sharing
// one deep ownership sub-proof).
func servingWorkloads() ([]struct {
	name  string
	app   string
	facts []ast.Atom
}, error) {
	type workload = struct {
		name  string
		app   string
		facts []ast.Atom
	}
	var out []workload
	for _, a := range apps.All() {
		out = append(out, workload{name: a.Name, app: a.Name, facts: a.Scenario()})
	}
	sc := synth.ControlChain(60, 7)
	out = append(out, workload{name: "control-chain-60", app: sc.App, facts: sc.Facts})
	return out, nil
}

// ServingLatency measures cold versus warm explain-all serving latency for
// every workload. Cold runs each request against a cache-less pipeline:
// the chase, proof extraction, template mapping and verbalization are all
// recomputed (the pre-memoization serving cost). Warm repeats the
// identical request against a pipeline with the result cache and
// explanation memo enabled, after one priming request. Both paths produce
// byte-identical explanations — the differential suites in core and
// server enforce it — so the figure isolates pure serving overhead.
func ServingLatency() (string, []ServingPoint, error) {
	const (
		coldIters = 3
		warmIters = 25
	)
	workloads, err := servingWorkloads()
	if err != nil {
		return "", nil, err
	}
	var points []ServingPoint
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %8s %8s %12s %12s %10s\n",
		"workload", "facts", "answers", "cold ms", "warm ms", "speedup")
	for _, w := range workloads {
		app, err := apps.ByName(w.app)
		if err != nil {
			return "", nil, err
		}
		coldPipe, err := app.Pipeline(core.Config{})
		if err != nil {
			return "", nil, fmt.Errorf("serving: %s: %w", w.name, err)
		}
		warmPipe, err := app.Pipeline(core.Config{
			ResultCacheSize:      8,
			ExplanationCacheSize: 1 << 14,
		})
		if err != nil {
			return "", nil, fmt.Errorf("serving: %s: %w", w.name, err)
		}
		request := func(p *core.Pipeline) (int, int, error) {
			res, err := p.Reason(w.facts...)
			if err != nil {
				return 0, 0, err
			}
			es, err := p.ExplainAll(res)
			if err != nil {
				return 0, 0, err
			}
			return res.Store.Len(), len(es), err
		}

		start := time.Now()
		var facts, answers int
		for i := 0; i < coldIters; i++ {
			if facts, answers, err = request(coldPipe); err != nil {
				return "", nil, fmt.Errorf("serving: %s cold: %w", w.name, err)
			}
		}
		cold := time.Since(start).Seconds() / coldIters

		if _, _, err := request(warmPipe); err != nil { // prime every cache
			return "", nil, fmt.Errorf("serving: %s prime: %w", w.name, err)
		}
		start = time.Now()
		for i := 0; i < warmIters; i++ {
			if _, _, err := request(warmPipe); err != nil {
				return "", nil, fmt.Errorf("serving: %s warm: %w", w.name, err)
			}
		}
		warm := time.Since(start).Seconds() / warmIters

		pt := ServingPoint{
			Workload:    w.name,
			App:         w.app,
			Facts:       facts,
			Answers:     answers,
			ColdSeconds: cold,
			WarmSeconds: warm,
			Speedup:     cold / warm,
		}
		points = append(points, pt)
		fmt.Fprintf(&sb, "%-20s %8d %8d %12.3f %12.3f %9.1fx\n",
			pt.Workload, pt.Facts, pt.Answers, cold*1e3, warm*1e3, pt.Speedup)
	}
	return sb.String(), points, nil
}
