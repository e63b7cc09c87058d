package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

// ownershipOfSize builds exactly n distinct Own facts over a random graph
// sparse enough that two-hop joins stay cheap at the cut-over.
func ownershipOfSize(n int, seed int64) []ast.Atom {
	rng := rand.New(rand.NewSource(seed))
	nodes := n / 2
	seen := map[[2]int]bool{}
	facts := make([]ast.Atom, 0, n)
	for len(facts) < n {
		edge := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
		if seen[edge] {
			continue
		}
		seen[edge] = true
		facts = append(facts, ast.NewAtom("Own",
			term.Str(fmt.Sprintf("c%d", edge[0])), term.Str(fmt.Sprintf("c%d", edge[1])),
			term.Float(0.1+float64(rng.Intn(90))/100)))
	}
	return facts
}

// TestCutoverBoundaryDifferential pins the engine's own executor choice at
// its boundary: for ownership graphs one fact below, at, and one fact above
// batchMinExtent, the automatic choice is byte-identical to the engine
// pinned to the frame executor and pinned to the batch executor, and the
// strategy counters show the choice flipping exactly at the
// cut-over. Every body predicate but Own is a strict subset of the Own
// edges, so Own's extent alone decides.
func TestCutoverBoundaryDifferential(t *testing.T) {
	prog := parser.MustParse(`
@output("Linked").
@label("b1") Major(X, Y) :- Own(X, Y, S), S > 0.5.
@label("b2") Pair(X, Z) :- Own(X, Y, S1), Own(Y, Z, S2), S1 > 0.5, S2 > 0.5.
@label("b3") Linked(X, Z) :- Major(X, Y), Major(Y, Z).
`)
	for _, n := range []int{batchMinExtent - 1, batchMinExtent, batchMinExtent + 1} {
		facts := ownershipOfSize(n, int64(n))
		frame, err := runTuned(frameOnly, prog, Options{ExtraFacts: facts})
		if err != nil {
			t.Fatalf("n=%d frame: %v", n, err)
		}
		if len(frame.Derived("Linked")) == 0 {
			t.Fatalf("n=%d: nothing derived", n)
		}
		opts := Options{ExtraFacts: facts}
		batch, err := runTuned(batchOnly, prog, opts)
		if err != nil {
			t.Fatalf("n=%d batch: %v", n, err)
		}
		diffResults(t, fmt.Sprintf("n=%d batch", n), frame, batch)
		auto, err := Run(prog, opts)
		if err != nil {
			t.Fatalf("n=%d auto: %v", n, err)
		}
		diffResults(t, fmt.Sprintf("n=%d auto", n), frame, auto)
		js := auto.JoinStats
		if n < batchMinExtent && (js.BatchJoins != 0 || js.FrameJoins == 0) {
			t.Errorf("n=%d: below the cut-over the engine must stay on the frame executor: %+v", n, js)
		}
		if n >= batchMinExtent && (js.BatchJoins == 0 || js.TriejoinPasses == 0) {
			t.Errorf("n=%d: at the cut-over the engine must move to the batch executor: %+v", n, js)
		}
	}
}
