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

// IncrementalPoint is one workload's measurement of maintaining the fixpoint
// under a single-fact update versus re-running the chase from scratch on
// the updated base.
type IncrementalPoint struct {
	// Workload names the measured instance.
	Workload string `json:"workload"`
	// App is the application registry name the workload runs on.
	App string `json:"app"`
	// Facts is the extensional database size of the instance.
	Facts int `json:"facts"`
	// Derived is the fixpoint size (all facts) at full base.
	Derived int `json:"derived"`
	// FullSeconds is the mean from-scratch chase latency over the updated
	// base (the pre-incremental cost of any base change).
	FullSeconds float64 `json:"fullSeconds"`
	// UpdateSeconds is the mean incremental update latency for the same
	// single-fact change (alternating retract and re-add).
	UpdateSeconds float64 `json:"updateSeconds"`
	// Speedup is FullSeconds / UpdateSeconds.
	Speedup float64 `json:"speedup"`
	// OverDeletedPerUpdate is the mean number of derived facts tombstoned
	// per retraction.
	OverDeletedPerUpdate float64 `json:"overDeletedPerUpdate"`
}

// IncrementalLatency measures single-fact update maintenance against full
// re-chase on synthetic control chains (the deep-recursion shape where
// re-chasing is most expensive). The update toggles the chain's last
// ownership hop: a retraction over-deletes and repairs only the facts
// downstream of that hop, and a re-addition repairs via the semi-naive
// delta, while the from-scratch baseline recomputes the entire fixpoint
// either way. The maintained fixpoint is semantically identical to the
// baseline's — the differential and fuzz suites in the incremental package
// enforce it — so the figure isolates pure maintenance cost.
func IncrementalLatency() (string, []IncrementalPoint, error) {
	const (
		fullIters   = 3
		updateIters = 30 // alternating retract / re-add
	)
	workloads := []struct {
		name  string
		steps int
	}{
		{"control-chain-30", 30},
		{"control-chain-60", 60},
	}
	var points []IncrementalPoint
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %8s %8s %12s %12s %10s\n",
		"workload", "facts", "derived", "full ms", "update ms", "speedup")
	for _, w := range workloads {
		sc := synth.ControlChain(w.steps, 7)
		app, err := apps.ByName(sc.App)
		if err != nil {
			return "", nil, err
		}
		pipe, err := app.Pipeline(core.Config{})
		if err != nil {
			return "", nil, fmt.Errorf("incremental: %s: %w", w.name, err)
		}

		// The toggled fact: the chain's last ownership hop.
		var hop ast.Atom
		for i := len(sc.Facts) - 1; i >= 0; i-- {
			if sc.Facts[i].Predicate == "Own" {
				hop = sc.Facts[i]
				break
			}
		}
		if hop.Predicate == "" {
			return "", nil, fmt.Errorf("incremental: %s: no Own fact to toggle", w.name)
		}
		reduced := make([]ast.Atom, 0, len(sc.Facts)-1)
		for _, f := range sc.Facts {
			if f.Key() != hop.Key() {
				reduced = append(reduced, f)
			}
		}

		// Baseline: a from-scratch chase over each toggle state.
		var derived int
		start := time.Now()
		for i := 0; i < fullIters; i++ {
			res, err := pipe.Reason(sc.Facts...)
			if err != nil {
				return "", nil, fmt.Errorf("incremental: %s full: %w", w.name, err)
			}
			derived = res.Store.Len()
			if _, err := pipe.Reason(reduced...); err != nil {
				return "", nil, fmt.Errorf("incremental: %s full: %w", w.name, err)
			}
		}
		full := time.Since(start).Seconds() / (2 * fullIters)

		// Incremental: one maintainer absorbing the same toggles.
		m, err := pipe.Maintain(sc.Facts...)
		if err != nil {
			return "", nil, fmt.Errorf("incremental: %s maintain: %w", w.name, err)
		}
		start = time.Now()
		for i := 0; i < updateIters; i++ {
			var err error
			if i%2 == 0 {
				_, _, err = m.Update(nil, []ast.Atom{hop})
			} else {
				_, _, err = m.Update([]ast.Atom{hop}, nil)
			}
			if err != nil {
				return "", nil, fmt.Errorf("incremental: %s update %d: %w", w.name, i, err)
			}
		}
		update := time.Since(start).Seconds() / updateIters
		c := m.Stats()

		pt := IncrementalPoint{
			Workload:             w.name,
			App:                  sc.App,
			Facts:                len(sc.Facts),
			Derived:              derived,
			FullSeconds:          full,
			UpdateSeconds:        update,
			Speedup:              full / update,
			OverDeletedPerUpdate: float64(c.OverDeleted) / float64(c.Updates),
		}
		points = append(points, pt)
		fmt.Fprintf(&sb, "%-20s %8d %8d %12.3f %12.3f %9.1fx\n",
			pt.Workload, pt.Facts, pt.Derived, full*1e3, update*1e3, pt.Speedup)
	}
	return sb.String(), points, nil
}
