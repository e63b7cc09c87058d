package repro

// Integration and scale tests: sweep the full pipeline across every bundled
// application and a spectrum of synthetic workloads, asserting the paper's
// structural guarantees — completeness of every explanation, determinism,
// naive/semi-naive equivalence — at sizes well beyond the unit tests.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/parser"
	"repro/internal/synth"
)

// explainAllScenarios runs a batch of scenarios through an application and
// verifies the completeness of every answer's explanation.
func explainAllScenarios(t *testing.T, scenarios []synth.Scenario) {
	t.Helper()
	pipes := map[string]*core.Pipeline{}
	for _, sc := range scenarios {
		pipe, ok := pipes[sc.App]
		if !ok {
			app, err := apps.ByName(sc.App)
			if err != nil {
				t.Fatal(err)
			}
			pipe, err = app.Pipeline(core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			pipes[sc.App] = pipe
		}
		res, err := pipe.Reason(sc.Facts...)
		if err != nil {
			t.Fatalf("%s: %v", sc.App, err)
		}
		exps, err := pipe.ExplainAll(res)
		if err != nil {
			t.Fatalf("%s: ExplainAll: %v", sc.App, err)
		}
		if len(exps) == 0 {
			t.Fatalf("%s: no answers", sc.App)
		}
		for _, e := range exps {
			if err := e.Verify(); err != nil {
				t.Errorf("%s: %v", sc.App, err)
			}
		}
	}
}

// TestIntegrationCompletenessSweep: every answer of every workload across
// all generators has a complete explanation.
func TestIntegrationCompletenessSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	var scenarios []synth.Scenario
	for seed := int64(0); seed < 6; seed++ {
		scenarios = append(scenarios,
			synth.ControlChain(int(3+seed*3), seed),
			synth.ControlJoint(int(2+seed), seed),
			synth.ControlChainJoint(int(1+seed%3), 2, seed),
			synth.StressCascade(int(1+seed*2), seed),
			synth.StressFanIn(int(2+seed), seed),
			synth.CloseLinkChain(int(1+seed%4), seed),
		)
	}
	explainAllScenarios(t, scenarios)
}

// TestIntegrationLargeControlGraph: a 200-hop control chain reasons, and the
// deepest fact explains completely, with one cycle segment per layer beyond
// the first.
func TestIntegrationLargeControlGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph skipped in -short mode")
	}
	const hops = 200
	sc := synth.ControlChain(hops, 99)
	app, _ := apps.ByName(sc.App)
	pipe, err := app.Pipeline(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Reason(sc.Facts...)
	if err != nil {
		t.Fatal(err)
	}
	e, err := pipe.ExplainQuery(res, sc.Query)
	if err != nil {
		t.Fatal(err)
	}
	if e.Proof.Size() != hops {
		t.Errorf("proof size = %d, want %d", e.Proof.Size(), hops)
	}
	ids := e.PathIDs()
	if len(ids) != hops-1 {
		t.Errorf("segments = %d, want %d (Π2 + %d cycles)", len(ids), hops-1, hops-2)
	}
	if err := e.Verify(); err != nil {
		t.Error(err)
	}
	// The explanation mentions every intermediate entity.
	for i := 0; i <= hops; i += 50 {
		name := fmt.Sprintf("N99_%d", i)
		if !strings.Contains(e.Text, name) {
			t.Errorf("explanation missing %s", name)
		}
	}
}

// TestIntegrationDeepCascade: a 101-step stress cascade (50 hops) explains
// completely and the omission contrast with the LLM baseline is extreme.
func TestIntegrationDeepCascade(t *testing.T) {
	if testing.Short() {
		t.Skip("deep cascade skipped in -short mode")
	}
	sc := synth.StressCascade(101, 7)
	app, _ := apps.ByName(sc.App)
	pipe, err := app.Pipeline(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Reason(sc.Facts...)
	if err != nil {
		t.Fatal(err)
	}
	e, err := pipe.ExplainQuery(res, sc.Query)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Error(err)
	}
	if r := llm.OmissionRatio(e.Text, e.Proof.Constants()); r != 0 {
		t.Errorf("template omission = %v at 101 steps", r)
	}
	det, err := pipe.VerbalizeProof(e.Proof)
	if err != nil {
		t.Fatal(err)
	}
	// The distinct-constants metric saturates on deep cascades (the same
	// few amounts repeat at every hop), so the contrast threshold is
	// modest; the template side must still be exactly zero.
	summ := (&llm.Simulated{Mode: llm.Summarize, Seed: 1}).Generate(det)
	if r := llm.OmissionRatio(summ, e.Proof.Constants()); r < 0.1 {
		t.Errorf("summary omission = %v at 101 steps, expected visible loss", r)
	}
}

// TestIntegrationJoinStrategyAtScale: the engine picks its join executor
// from the size of its input — a bundled scenario stays on the frame
// executor, a fifteen-thousand-edge ownership graph moves to the batch
// executor — and the strategy counters on the result say so. Explanations
// over the batch-evaluated graph stay complete.
func TestIntegrationJoinStrategyAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale run skipped in -short mode")
	}
	app, _ := apps.ByName(apps.NameCompanyControl)
	pipe, err := app.Pipeline(core.Config{SkipEnhancement: true})
	if err != nil {
		t.Fatal(err)
	}
	small, err := pipe.Reason(app.Scenario()...)
	if err != nil {
		t.Fatal(err)
	}
	if js := small.JoinStats; js.FrameJoins == 0 || js.BatchJoins != 0 {
		t.Errorf("bundled scenario: want frame joins only, got %+v", js)
	}
	large, err := pipe.Reason(synth.RandomControl(6, 2000, 7).Facts...)
	if err != nil {
		t.Fatal(err)
	}
	if js := large.JoinStats; js.BatchJoins == 0 || js.TriejoinPasses == 0 {
		t.Errorf("large graph: want batch joins with leapfrog merges, got %+v", js)
	}
	answers := large.Answers()
	if len(answers) == 0 {
		t.Fatal("large graph derived no control facts")
	}
	for _, id := range answers[:20] {
		e, err := pipe.ExplainFact(large, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Verify(); err != nil {
			t.Error(err)
		}
	}
}

// TestIntegrationReasonDeterminism: repeated runs produce byte-identical
// explanations (required for auditability of business reports).
func TestIntegrationReasonDeterminism(t *testing.T) {
	sc := synth.StressCascade(9, 11)
	app, _ := apps.ByName(sc.App)
	texts := map[string]bool{}
	for i := 0; i < 3; i++ {
		pipe, err := app.Pipeline(core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipe.Reason(sc.Facts...)
		if err != nil {
			t.Fatal(err)
		}
		e, err := pipe.ExplainQuery(res, sc.Query)
		if err != nil {
			t.Fatal(err)
		}
		texts[e.Text] = true
	}
	if len(texts) != 1 {
		t.Errorf("explanations differ across runs: %d variants", len(texts))
	}
}

// TestIntegrationConcurrentExplanations: one pipeline serves concurrent
// explanation queries over distinct results safely.
func TestIntegrationConcurrentExplanations(t *testing.T) {
	app, _ := apps.ByName(apps.NameCompanyControl)
	pipe, err := app.Pipeline(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			sc := synth.ControlChain(10, seed)
			res, err := pipe.Reason(sc.Facts...)
			if err != nil {
				errc <- err
				return
			}
			pattern, err := parser.ParseAtom(sc.Query)
			if err != nil {
				errc <- err
				return
			}
			id, err := res.LookupDerived(pattern)
			if err != nil {
				errc <- err
				return
			}
			e, err := pipe.ExplainFact(res, id)
			if err != nil {
				errc <- err
				return
			}
			errc <- e.Verify()
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}
