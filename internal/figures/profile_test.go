package figures

import (
	"os"
	"testing"

	"repro/internal/chase"
	"repro/internal/parser"
	"repro/internal/synth"
)

// TestColumnarProfile is a profiling harness, not a correctness test: it
// runs one columnar-benchmark workload so
// `go test -run TestColumnarProfile -cpuprofile cpu.out` isolates the join
// executor on it. COLUMNAR_PROFILE_WORKLOAD picks reach or twohop (unset
// skips the test); COLUMNAR_PROFILE_FULL runs the benchmark's full
// million-fact scale instead of the mid scale. Both scales are far past the
// engine's frame/batch cut-over, which the strategy counters confirm.
func TestColumnarProfile(t *testing.T) {
	rules := map[string]string{"reach": columnarReachRules, "twohop": columnarTwoHopRules}[os.Getenv("COLUMNAR_PROFILE_WORKLOAD")]
	if rules == "" {
		t.Skip("set COLUMNAR_PROFILE_WORKLOAD=reach|twohop to profile")
	}
	scale := []int{32, 300, 16}
	if os.Getenv("COLUMNAR_PROFILE_FULL") != "" {
		scale = []int{64, 500, 32}
	}
	facts := synth.LayeredOwnership(scale[0], scale[1], scale[2], 42)
	prog, err := parser.Parse(rules)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chase.Run(prog, chase.Options{ExtraFacts: facts})
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinStats.BatchJoins == 0 {
		t.Fatalf("batch executor never ran: %+v", res.JoinStats)
	}
	t.Logf("%d facts total, load %.2fs eval %.2fs, joins %+v",
		res.Store.Len(), res.LoadSeconds, res.EvalSeconds, res.JoinStats)
}
