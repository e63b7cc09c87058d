package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/parser"
	"repro/internal/term"
)

// diffBatch runs the program under every forced batch-executor tuning,
// asserts each run byte-for-byte identical to the reference result, and
// adds the runs' strategy counters to sum so callers can assert which join
// paths ran.
func diffBatch(t *testing.T, label string, ref *Result, prog *ast.Program, facts []ast.Atom, naive bool, sum *database.ColumnarStats) {
	t.Helper()
	for _, v := range batchTunings {
		batch, err := runTuned(v.tn.withNaive(naive), prog, Options{ExtraFacts: facts})
		if err != nil {
			t.Fatalf("%s naive=%v %s: %v", label, naive, v.name, err)
		}
		diffResults(t, fmt.Sprintf("%s naive=%v %s", label, naive, v.name), ref, batch)
		js := batch.JoinStats
		sum.FrameJoins += js.FrameJoins
		sum.BatchJoins += js.BatchJoins
		sum.TriejoinPasses += js.TriejoinPasses
		sum.ProbePasses += js.ProbePasses
		sum.ScanPasses += js.ScanPasses
		sum.FrameFallbacks += js.FrameFallbacks
	}
}

// assertRan fails for every named strategy counter that stayed zero.
func assertRan(t *testing.T, js database.ColumnarStats, counters map[string]uint64) {
	t.Helper()
	for name, n := range counters {
		if n == 0 {
			t.Errorf("no %s ran: %+v", name, js)
		}
	}
}

// TestBatchEquivalenceFixedPrograms: the batch-at-a-time columnar executor
// reproduces the reference interpreter (and hence the frame executor, which
// has its own differential against the same baseline) byte for byte —
// facts, ids, steps, premise order, substitutions, aggregation
// contributors, chase graph — on every bundled program shape, in naive and
// semi-naive mode, sequential and parallel.
func TestBatchEquivalenceFixedPrograms(t *testing.T) {
	sources := map[string]string{
		"stress-simple": stressSimpleSrc,
		"irish-bank":    irishBankSrc,
		"two-channel":   twoChannelSrc,
		"negation":      eligibleSrc,
		"kitchen-sink":  planKitchenSrc,
	}
	var js database.ColumnarStats
	for name, src := range sources {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		for _, naive := range []bool{false, true} {
			legacy, err := runTuned(legacyRef.withNaive(naive), prog, Options{})
			if err != nil {
				t.Fatalf("%s naive=%v legacy: %v", name, naive, err)
			}
			diffBatch(t, name, legacy, prog, nil, naive, &js)
		}
	}
	// Bound probes (and with them leapfrog merges) need a predicate past the
	// columnar index's first tail-to-base merge, which these programs' few
	// facts never reach; TestBatchTriejoinDifferential covers them.
	assertRan(t, js, map[string]uint64{
		"frame joins": js.FrameJoins, "batch joins": js.BatchJoins,
		"constant probes": js.ProbePasses, "scans": js.ScanPasses,
		"per-pivot frame fallbacks": js.FrameFallbacks,
	})
}

// TestBatchDifferentialRandomOwnership: over 24 random layered ownership
// graphs, the batch executor is identical to the reference interpreter.
func TestBatchDifferentialRandomOwnership(t *testing.T) {
	controlRules := `
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("s2") Control(X, X) :- Company(X).
@label("s3") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.
`
	prog, err := parser.Parse(controlRules)
	if err != nil {
		t.Fatal(err)
	}
	var js database.ColumnarStats
	for seed := int64(0); seed < 24; seed++ {
		facts := randomOwnership(seed)
		legacy, err := runTuned(legacyRef, prog, Options{ExtraFacts: facts})
		if err != nil {
			t.Fatalf("seed %d legacy: %v", seed, err)
		}
		diffBatch(t, fmt.Sprintf("seed %d", seed), legacy, prog, facts, false, &js)
	}
	if js.BatchJoins == 0 || js.ScanPasses == 0 {
		t.Errorf("batch executor never ran: %+v", js)
	}
}

// TestBatchConstraintViolation: constraint pseudo-rules flow through the
// same join dispatch, so the batch executor must report the identical first
// violating homomorphism.
func TestBatchConstraintViolation(t *testing.T) {
	src := `
@output("P").
P(X) :- Q(X).
:- P(X), Bad(X).
Q("a"). Q("b"). Bad("b").
`
	prog := parser.MustParse(src)
	_, ferr := runTuned(frameOnly, prog, Options{})
	_, berr := runTuned(batchOnly, prog, Options{})
	if ferr == nil || berr == nil {
		t.Fatalf("constraint not reported: frame=%v batch=%v", ferr, berr)
	}
	if ferr.Error() != berr.Error() {
		t.Fatalf("constraint errors differ:\nframe: %v\nbatch: %v", ferr, berr)
	}
}

// denseOwnership builds a layered ownership graph dense enough that the
// bound-probe depths of a two-hop join carry well over mergeThreshold
// tuples, forcing the leapfrog merge path (not the per-tuple probe path).
func denseOwnership(layers, width, fanout int, seed int64) []ast.Atom {
	rng := rand.New(rand.NewSource(seed))
	var facts []ast.Atom
	node := func(l, i int) string { return fmt.Sprintf("L%dC%d", l, i) }
	for l := 1; l < layers; l++ {
		for i := 0; i < width; i++ {
			for f := 0; f < fanout; f++ {
				share := 0.1 + float64(rng.Intn(90))/100
				facts = append(facts, ast.NewAtom("Own",
					term.Str(node(l-1, rng.Intn(width))), term.Str(node(l, i)), term.Float(share)))
			}
		}
	}
	return facts
}

// TestBatchTriejoinDifferential: on workloads sized to exercise the merge
// (leapfrog) join path, the batch executor is byte-identical to the frame
// executor, in bulk and semi-naive modes, under the shipped thresholds and
// with each strategy forced — and the join counters prove that leapfrog
// merges, per-tuple probes and scans actually ran rather than one silently
// standing in for another.
func TestBatchTriejoinDifferential(t *testing.T) {
	sources := map[string]string{
		"two-hop": `
@output("Risky").
@label("t1") Risky(X, Z) :- Own(X, Y, S1), Own(Y, Z, S2), S1 > 0.5, S2 > 0.5.
`,
		"majority-reach": `
@output("Reach").
@label("r1") Reach(X) :- Own("L0C0", X, S), S > 0.2.
@label("r2") Reach(Y) :- Reach(X), Own(X, Y, S), S > 0.5.
`,
	}
	var js database.ColumnarStats
	for seed := int64(0); seed < 3; seed++ {
		facts := denseOwnership(6, 30, 8, seed)
		for name, src := range sources {
			prog, err := parser.Parse(src)
			if err != nil {
				t.Fatalf("%s: parse: %v", name, err)
			}
			frame, err := runTuned(frameOnly, prog, Options{ExtraFacts: facts})
			if err != nil {
				t.Fatalf("%s seed %d frame: %v", name, seed, err)
			}
			js.FrameJoins += frame.JoinStats.FrameJoins
			diffBatch(t, fmt.Sprintf("%s seed %d", name, seed), frame, prog, facts, false, &js)
			// Per run at the shipped thresholds: the batch executor must
			// seek the sorted runs, and the two-hop join is dense enough
			// that it also drives its bound-probe depth through the
			// leapfrog merge. Recursive reach deltas can legitimately stay
			// below mergeThreshold, so only seek accounting is required
			// there.
			batch, err := runTuned(batchOnly, prog, Options{ExtraFacts: facts})
			if err != nil {
				t.Fatalf("%s seed %d batch: %v", name, seed, err)
			}
			st := batch.JoinStats
			if name == "two-hop" && st.TriejoinPasses == 0 {
				t.Fatalf("%s seed %d: merge path never ran: %+v", name, seed, st)
			}
			if st.Seeks == 0 {
				t.Fatalf("%s seed %d: no iterator seeks recorded: %+v", name, seed, st)
			}
		}
	}
	assertRan(t, js, map[string]uint64{
		"frame joins": js.FrameJoins, "batch joins": js.BatchJoins,
		"leapfrog merges": js.TriejoinPasses, "probes": js.ProbePasses, "scans": js.ScanPasses,
	})
}
