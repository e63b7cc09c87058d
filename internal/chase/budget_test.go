package chase_test

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/chase"
	"repro/internal/synth"
)

// Memory budgets of one chase run on a small RandomControl ownership graph:
// allocations and allocated bytes per derived fact, and heap bytes the
// Result retains per chase step. Each is the measured value plus 10 %, so a
// change that brings back a per-step allocation — a map per recorded
// homomorphism, say — fails here before any benchmark sees it.
const (
	budgetAllocsPerFact   = 42
	budgetBytesPerFact    = 4040
	budgetRetainedPerStep = 1450
)

func TestMemoryBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	prog := apps.CompanyControl().Program()
	opts := chase.Options{ExtraFacts: synth.RandomControl(6, 200, 1).Facts}

	var res *chase.Result
	var before, after runtime.MemStats
	const runs = 3
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		var err error
		if res, err = chase.Run(prog, opts); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	derived := float64(len(res.Steps))
	// AllocsPerRun makes one warm-up call before the runs it averages.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)

	res = nil
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := chase.Run(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	steps := float64(len(res.Steps))
	runtime.KeepAlive(res)

	t.Logf("%.0f derived facts: %.1f allocs and %.0f bytes per fact, %.0f bytes retained per step",
		derived, allocs/derived, bytes/derived, retained/steps)
	for _, c := range []struct {
		what        string
		got, budget float64
	}{
		{"allocations per derived fact", allocs / derived, budgetAllocsPerFact},
		{"bytes allocated per derived fact", bytes / derived, budgetBytesPerFact},
		{"heap bytes retained per step", retained / steps, budgetRetainedPerStep},
	} {
		if c.got > c.budget {
			t.Errorf("%s: %.1f, budget %.1f", c.what, c.got, c.budget)
		}
	}
}
