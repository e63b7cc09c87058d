package chase_test

// Frame-versus-batch lockstep under incremental maintenance: the same
// add/retract history applied to a maintainer pinned to the frame executor
// and to a maintainer pinned to the batch executor must leave
// byte-identical engines after every update. The programs are the
// incremental package's differential shapes; at their size the engine's own
// choice is always the frame executor, so the executor is pinned through the
// test hook, which is why the suite lives here and not in
// internal/incremental (whose own lockstep runs the engine's choice on
// instances past the cut-over).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/incremental"
	"repro/internal/parser"
	"repro/internal/term"
)

func atomOf(pred string, args ...any) ast.Atom {
	terms := make([]term.Term, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case string:
			terms[i] = term.Str(v)
		case float64:
			terms[i] = term.Float(v)
		}
	}
	return ast.NewAtom(pred, terms...)
}

// lockstepPrograms are transitive control with a joint-control aggregation,
// multiplicative close-link recursion, plain sum/count aggregation,
// stratified negation over control, and an aggregation guarded by negation,
// each with the pool of base atoms its random histories draw from: the
// program's own facts plus novel ones that extend, bridge or exempt parts of
// the instance.
func lockstepPrograms() []struct {
	name, src string
	pool      []ast.Atom
} {
	var ownPool, ctrlPool, aggPool, negPool, negAggPool []ast.Atom
	entities := []string{"A", "B", "C", "D", "E"}
	for i, x := range entities {
		for j, y := range entities {
			if i != j {
				ownPool = append(ownPool, atomOf("Own", x, y, 0.55), atomOf("Own", x, y, 0.3))
			}
		}
	}
	ctrlPool = append(ctrlPool, ownPool...)
	for _, x := range entities {
		ctrlPool = append(ctrlPool, atomOf("Company", x))
	}
	for _, b := range []string{"B1", "B2"} {
		for _, c := range []string{"C1", "C2", "C3"} {
			aggPool = append(aggPool, atomOf("Loan", b, c, 10.0), atomOf("Loan", b, c, 2.5))
		}
	}
	for _, f := range []string{"F1", "F2", "F3"} {
		for _, tgt := range []string{"T1", "T2"} {
			negPool = append(negPool, atomOf("Own", f, tgt, 0.7))
		}
		negPool = append(negPool, atomOf("Exempt", f), atomOf("Foreign", f))
	}
	negPool = append(negPool, atomOf("Strategic", "T1"), atomOf("Strategic", "T2"))
	for _, c := range []string{"C1", "C2", "C3"} {
		negAggPool = append(negAggPool, atomOf("Loan", "B1", c, 10.0), atomOf("Loan", "B2", c, 5.0), atomOf("Waived", c))
	}
	return []struct {
		name, src string
		pool      []ast.Atom
	}{
		{"ctrl", `
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("s2") Control(X, X) :- Company(X).
@label("s3") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.

Company("A"). Company("B"). Company("C"). Company("D"). Company("E").
Own("A", "B", 0.55). Own("B", "C", 0.6). Own("C", "D", 0.55). Own("D", "E", 0.3). Own("B", "E", 0.25).
`, ctrlPool},
		{"close", `
@output("CloseLink").
@label("c1") MOwn(X, Y, S) :- Own(X, Y, S).
@label("c2") MOwn(X, Y, S) :- MOwn(X, Z, S1), Own(Z, Y, S2), S = S1 * S2, S >= 0.01.
@label("c3") CloseLink(X, Y) :- MOwn(X, Y, S), TS = sum(S), TS >= 0.2.

Own("A", "B", 0.55). Own("B", "C", 0.6). Own("A", "C", 0.1). Own("C", "D", 0.5).
`, ownPool},
		{"agg", `
@output("Exposure").
@label("a1") Debt(X, Y, A) :- Loan(X, Y, A).
@label("a2") Exposure(X, T) :- Debt(X, Y, A), T = sum(A), T > 0.0.
@label("a3") Spread(X, N) :- Debt(X, Y, A), N = count(Y), N > 1.

Loan("B1", "C1", 10.0). Loan("B1", "C2", 5.0). Loan("B2", "C1", 7.0).
`, aggPool},
		{"neg", `
@output("Review").
@label("g1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("g4") Review(X, Y) :- Control(X, Y), Strategic(Y), not Exempt(X).

Own("F1", "T1", 0.7). Own("F2", "T2", 0.8). Strategic("T1"). Strategic("T2"). Exempt("F2").
`, negPool},
		{"negagg", `
@output("Risk").
@label("n1") Active(X, Y, A) :- Loan(X, Y, A), not Waived(Y).
@label("n2") Risk(X, T) :- Active(X, Y, A), T = sum(A), T > 0.0.

Loan("B1", "C1", 10.0). Loan("B1", "C2", 5.0). Waived("C3").
`, negAggPool},
	}
}

// TestIncrementalExecutorLockstep drives a frame-pinned maintainer and a
// batch-pinned one (small-delta fallbacks off so even a one-fact update runs
// batch passes) through 12 random add/retract
// histories per program: update statistics and the full engine state — ids,
// tombstones, supersessions, steps, substitutions, contributors — must agree
// after every update. The counters must show that the pinned maintainers ran
// what they were pinned to, during the updates and not just the initial
// chase, and that the batch side went through columnar rebuilds (retractions
// invalidate the indexes).
func TestIncrementalExecutorLockstep(t *testing.T) {
	const (
		seeds     = 12
		updateLen = 8
	)
	opts := chase.Options{MaxRounds: 200, MaxFacts: 50_000}
	arms := []struct {
		exec chase.Tuning
		opts chase.Options
	}{{chase.FrameOnly, opts}, {chase.BatchAlways, opts}}
	for _, p := range lockstepPrograms() {
		t.Run(p.name, func(t *testing.T) {
			prog, err := parser.Parse(p.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			var updateBatchJoins, rebuilds uint64
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ms := make([]*incremental.Maintainer, len(arms))
				initial := make([]uint64, len(arms))
				for i, arm := range arms {
					chase.WithTuning(arm.exec, func() { ms[i], err = incremental.New(prog, arm.opts) })
					if err != nil {
						t.Fatalf("seed %d arm %d: %v", seed, i, err)
					}
					initial[i] = mustResult(t, ms[i]).JoinStats.BatchJoins
				}
				for step := 0; step < updateLen; step++ {
					var add, retract []ast.Atom
					for n := rng.Intn(3) + 1; n > 0; n-- {
						a := p.pool[rng.Intn(len(p.pool))]
						if rng.Intn(2) == 0 {
							add = append(add, a)
						} else {
							retract = append(retract, a)
						}
					}
					// Retracting a derived atom is a request error that
					// poisons the maintainer, and promoting one to a base fact
					// is covered by its own test: skip both.
					if !validDelta(ms[0], add) || !validDelta(ms[0], retract) {
						continue
					}
					applyAll(t, fmt.Sprintf("seed %d step %d", seed, step), ms, add, retract)
				}
				for i, m := range ms {
					js := mustResult(t, m).JoinStats
					if arms[i].exec == chase.FrameOnly {
						if js.BatchJoins != 0 {
							t.Fatalf("seed %d: frame-pinned maintainer ran batch joins: %+v", seed, js)
						}
						continue
					}
					updateBatchJoins += js.BatchJoins - initial[i]
					rebuilds += js.Rebuilds
				}
			}
			if updateBatchJoins == 0 || rebuilds == 0 {
				t.Errorf("updates never reached the batch executor's rebuild path: %d batch joins during updates, %d rebuilds",
					updateBatchJoins, rebuilds)
			}
		})
	}
}
