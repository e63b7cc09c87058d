package incremental

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/parser"
	"repro/internal/term"
)

// The differential programs cover the seed apps' shapes: transitive control
// with a joint-control aggregation, multiplicative close-link recursion,
// a plain sum/count aggregation, stratified negation over control, and an
// aggregation guarded by negation (the hardest repair path).

const ctrlSrc = `
@name("ctrl").
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("s2") Control(X, X) :- Company(X).
@label("s3") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.

Company("A"). Company("B"). Company("C"). Company("D"). Company("E").
Own("A", "B", 0.55).
Own("B", "C", 0.6).
Own("C", "D", 0.55).
Own("D", "E", 0.3).
Own("B", "E", 0.25).
`

const closeSrc = `
@name("close").
@output("CloseLink").
@label("c1") MOwn(X, Y, S) :- Own(X, Y, S).
@label("c2") MOwn(X, Y, S) :- MOwn(X, Z, S1), Own(Z, Y, S2), S = S1 * S2, S >= 0.01.
@label("c3") CloseLink(X, Y) :- MOwn(X, Y, S), TS = sum(S), TS >= 0.2.

Own("A", "B", 0.55).
Own("B", "C", 0.6).
Own("A", "C", 0.1).
Own("C", "D", 0.5).
`

const aggSrc = `
@name("agg").
@output("Exposure").
@label("a1") Debt(X, Y, A) :- Loan(X, Y, A).
@label("a2") Exposure(X, T) :- Debt(X, Y, A), T = sum(A), T > 0.0.
@label("a3") Spread(X, N) :- Debt(X, Y, A), N = count(Y), N > 1.

Loan("B1", "C1", 10.0).
Loan("B1", "C2", 5.0).
Loan("B2", "C1", 7.0).
`

const negSrc = `
@name("neg").
@output("Review").
@label("g1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("g4") Review(X, Y) :- Control(X, Y), Strategic(Y), not Exempt(X).

Own("F1", "T1", 0.7).
Own("F2", "T2", 0.8).
Strategic("T1").
Strategic("T2").
Exempt("F2").
`

const negAggSrc = `
@name("negagg").
@output("Risk").
@label("n1") Active(X, Y, A) :- Loan(X, Y, A), not Waived(Y).
@label("n2") Risk(X, T) :- Active(X, Y, A), T = sum(A), T > 0.0.

Loan("B1", "C1", 10.0).
Loan("B1", "C2", 5.0).
Waived("C3").
`

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func own(x, y string, s float64) ast.Atom {
	return ast.NewAtom("Own", term.Str(x), term.Str(y), term.Float(s))
}

func atom1(pred, x string) ast.Atom { return ast.NewAtom(pred, term.Str(x)) }

func loan(x, y string, a float64) ast.Atom {
	return ast.NewAtom("Loan", term.Str(x), term.Str(y), term.Float(a))
}

// scratchRun re-chases the maintainer's effective base from scratch: the
// ground truth the maintained fixpoint must match.
func scratchRun(t *testing.T, m *Maintainer, opts chase.Options) *chase.Result {
	t.Helper()
	res, err := m.Result()
	if err != nil {
		t.Fatalf("maintained result: %v", err)
	}
	p := *res.Program
	p.Facts = m.BaseFacts()
	opts.ExtraFacts = nil
	out, err := chase.Run(&p, opts)
	if err != nil {
		t.Fatalf("scratch chase: %v", err)
	}
	return out
}

// liveSet maps every live, non-superseded atom to "e" (extensional) or "d"
// (derived). Fact ids deliberately do not participate: a re-derived atom
// carries a fresh id.
func liveSet(res *chase.Result) map[string]string {
	out := map[string]string{}
	for _, f := range res.Store.Facts() {
		if res.Store.Retracted(f.ID) || res.Superseded(f.ID) {
			continue
		}
		kind := "d"
		if f.Extensional {
			kind = "e"
		}
		out[f.Atom.Key()] = kind
	}
	return out
}

// checkEquivalent asserts the maintained result is semantically identical to
// the from-scratch one: same live fact set (with extensionality), same
// answers, and a valid proof over live facts for every answer.
func checkEquivalent(t *testing.T, label string, maintained, fresh *chase.Result) {
	t.Helper()
	got, want := liveSet(maintained), liveSet(fresh)
	for k, kind := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: maintained result is missing %s (%s)", label, k, kind)
		} else if g != kind {
			t.Errorf("%s: %s is %s in maintained, %s from scratch", label, k, g, kind)
		}
	}
	for k, kind := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: maintained result has extra %s (%s)", label, k, kind)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range maintained.Answers() {
		proof, err := maintained.ExtractProof(id)
		if err != nil {
			t.Fatalf("%s: proof of %s: %v", label, maintained.Store.Get(id), err)
		}
		for _, leaf := range proof.Leaves {
			f := maintained.Store.Get(leaf)
			if !f.Extensional {
				t.Errorf("%s: proof of %s rests on non-extensional leaf %s", label, maintained.Store.Get(id), f)
			}
			if maintained.Store.Retracted(leaf) {
				t.Errorf("%s: proof of %s rests on retracted leaf %s", label, maintained.Store.Get(id), f)
			}
		}
		for _, d := range proof.Steps {
			for _, prem := range d.Premises {
				if maintained.Store.Retracted(prem) {
					t.Errorf("%s: proof of %s uses retracted premise %s", label,
						maintained.Store.Get(id), maintained.Store.Get(prem))
				}
			}
		}
	}
}

func update(t *testing.T, m *Maintainer, add, retract []ast.Atom) (*chase.Result, UpdateStats) {
	t.Helper()
	res, stats, err := m.Update(add, retract)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	return res, stats
}

func TestUpdateAddExtendsChain(t *testing.T) {
	m, err := New(mustParse(t, ctrlSrc), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := m.Update([]ast.Atom{own("D", "E", 0.3)}, nil) // already present
	if err != nil || stats.Added != 0 {
		t.Fatalf("no-op add: stats=%+v err=%v", stats, err)
	}
	before := len(res.Answers())
	res, stats = update(t, m, []ast.Atom{own("E", "F", 0.9), atom1("Company", "F")}, nil)
	if stats.Added != 2 || stats.DeltaRounds == 0 {
		t.Errorf("stats = %+v, want 2 adds and >0 delta rounds", stats)
	}
	if len(res.Answers()) <= before {
		t.Errorf("answers %d not grown from %d", len(res.Answers()), before)
	}
	checkEquivalent(t, "add-chain", res, scratchRun(t, m, chase.Options{}))
}

func TestUpdateRetractOverDeletes(t *testing.T) {
	m, err := New(mustParse(t, ctrlSrc), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, stats := update(t, m, nil, []ast.Atom{own("B", "C", 0.6)})
	if stats.Retracted != 1 || stats.OverDeleted == 0 {
		t.Errorf("stats = %+v, want 1 retraction with downstream over-deletes", stats)
	}
	checkEquivalent(t, "retract-mid-chain", res, scratchRun(t, m, chase.Options{}))
}

func TestUpdateRederivesAlternativeProof(t *testing.T) {
	// Two independent majority stakes derive the same Control(A, B); losing
	// one must keep the atom alive through the other.
	src := `
@output("Reach").
@label("r1") Reach(X, Y) :- Edge(X, Y).
@label("r2") Reach(X, Y) :- Reach(X, Z), Edge(Z, Y).

Edge("A", "B").
Edge("B", "C").
Edge("A", "C").
`
	m, err := New(mustParse(t, src), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Reach(A, C) is recorded via its earliest proof; retract the direct
	// edge and the two-hop proof must keep it alive (or vice versa).
	res, stats := update(t, m, nil, []ast.Atom{ast.NewAtom("Edge", term.Str("A"), term.Str("C"))})
	if stats.Rederived == 0 {
		t.Errorf("stats = %+v, want at least one re-derivation", stats)
	}
	found := false
	for _, id := range res.Answers() {
		if res.Store.Get(id).Atom.Key() == ast.NewAtom("Reach", term.Str("A"), term.Str("C")).Key() {
			found = true
		}
	}
	if !found {
		t.Error("Reach(A, C) lost despite alternative proof")
	}
	checkEquivalent(t, "alt-proof", res, scratchRun(t, m, chase.Options{}))
}

func TestUpdateAggregateRecompute(t *testing.T) {
	m, err := New(mustParse(t, aggSrc), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := update(t, m, nil, []ast.Atom{loan("B1", "C2", 5.0)})
	want := ast.NewAtom("Exposure", term.Str("B1"), term.Float(10.0))
	if res.Store.Lookup(want) == nil {
		t.Errorf("Exposure(B1, 10) missing after retracting one loan:\n%s", res.Store.Dump())
	}
	checkEquivalent(t, "agg-shrink", res, scratchRun(t, m, chase.Options{}))

	res, _ = update(t, m, []ast.Atom{loan("B1", "C3", 2.5)}, nil)
	want = ast.NewAtom("Exposure", term.Str("B1"), term.Float(12.5))
	if res.Store.Lookup(want) == nil {
		t.Errorf("Exposure(B1, 12.5) missing after adding a loan:\n%s", res.Store.Dump())
	}
	checkEquivalent(t, "agg-grow", res, scratchRun(t, m, chase.Options{}))
}

func TestUpdateNegationGainAndLoss(t *testing.T) {
	m, err := New(mustParse(t, negSrc), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Gain: exempting F1 must withdraw Review(F1, T1).
	res, stats := update(t, m, []ast.Atom{atom1("Exempt", "F1")}, nil)
	review := ast.NewAtom("Review", term.Str("F1"), term.Str("T1"))
	if res.Store.Lookup(review) != nil {
		t.Error("Review(F1, T1) survived the exemption")
	}
	if stats.OverDeleted == 0 {
		t.Errorf("stats = %+v, want over-deletion via negation", stats)
	}
	checkEquivalent(t, "negation-gain", res, scratchRun(t, m, chase.Options{}))

	// Loss: dropping F2's exemption must surface Review(F2, T2).
	res, _ = update(t, m, nil, []ast.Atom{atom1("Exempt", "F2")})
	if res.Store.Lookup(ast.NewAtom("Review", term.Str("F2"), term.Str("T2"))) == nil {
		t.Error("Review(F2, T2) missing after the exemption lapsed")
	}
	checkEquivalent(t, "negation-loss", res, scratchRun(t, m, chase.Options{}))
}

func TestUpdateNegatedAggregateContributors(t *testing.T) {
	m, err := New(mustParse(t, negAggSrc), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Waiving C1 blocks its Active contributor: the total must drop to 5.
	res, _ := update(t, m, []ast.Atom{atom1("Waived", "C1")}, nil)
	if res.Store.Lookup(ast.NewAtom("Risk", term.Str("B1"), term.Float(5.0))) == nil {
		t.Errorf("Risk(B1, 5) missing after waiving C1:\n%s", res.Store.Dump())
	}
	checkEquivalent(t, "neg-agg-gain", res, scratchRun(t, m, chase.Options{}))

	// Waiving C2 as well empties the group: no Risk(B1, _) at all.
	res, _ = update(t, m, []ast.Atom{atom1("Waived", "C2")}, nil)
	for _, id := range res.Answers() {
		t.Errorf("unexpected live answer %s", res.Store.Get(id))
	}
	checkEquivalent(t, "neg-agg-empty", res, scratchRun(t, m, chase.Options{}))

	// Un-waiving both restores the full total.
	res, _ = update(t, m, nil, []ast.Atom{atom1("Waived", "C1"), atom1("Waived", "C2")})
	if res.Store.Lookup(ast.NewAtom("Risk", term.Str("B1"), term.Float(15.0))) == nil {
		t.Errorf("Risk(B1, 15) missing after un-waiving:\n%s", res.Store.Dump())
	}
	checkEquivalent(t, "neg-agg-loss", res, scratchRun(t, m, chase.Options{}))
}

func TestUpdateRetractDerivedFails(t *testing.T) {
	m, err := New(mustParse(t, ctrlSrc), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	epoch := m.Epoch()
	control := ast.NewAtom("Control", term.Str("A"), term.Str("B"))
	if _, _, err := m.Update(nil, []ast.Atom{control}); err == nil {
		t.Fatal("retracting a derived fact succeeded")
	}
	// The failed resolution must not have mutated anything (not poisoned).
	if m.Epoch() != epoch {
		t.Error("rejected update mutated the store")
	}
	if _, _, err := m.Update(nil, nil); err != nil {
		t.Errorf("maintainer poisoned by a rejected update: %v", err)
	}
}

func TestUpdatePromotesDerivedToBase(t *testing.T) {
	m, err := New(mustParse(t, ctrlSrc), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Control(A, B) is derived; adding it as a base fact must promote it.
	control := ast.NewAtom("Control", term.Str("A"), term.Str("B"))
	res, stats := update(t, m, []ast.Atom{control}, nil)
	f := res.Store.Lookup(control)
	if f == nil || !f.Extensional {
		t.Fatalf("Control(A, B) not extensional after promotion: %v", f)
	}
	if stats.Added != 1 {
		t.Errorf("stats = %+v, want 1 add", stats)
	}
	checkEquivalent(t, "promote", res, scratchRun(t, m, chase.Options{}))
}

func TestUpdateConstraintViolationPoisons(t *testing.T) {
	src := `
@output("P").
@label("p1") P(X) :- Q(X).
:- P(X), Bad(X).

Q("a").
`
	m, err := New(mustParse(t, src), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Update([]ast.Atom{atom1("Bad", "a")}, nil); err == nil {
		t.Fatal("constraint-violating update succeeded")
	}
	if _, _, err := m.Update(nil, nil); err == nil {
		t.Fatal("maintainer served after a failed update")
	}
	if _, err := m.Result(); err == nil {
		t.Fatal("Result served after a failed update")
	}
}

func TestEpochAdvancesOnlyOnChange(t *testing.T) {
	m, err := New(mustParse(t, ctrlSrc), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e0 := m.Epoch()
	update(t, m, []ast.Atom{own("A", "B", 0.55)}, nil) // present: no-op
	if m.Epoch() != e0 {
		t.Error("no-op update advanced the epoch")
	}
	update(t, m, []ast.Atom{own("E", "Z", 0.9)}, nil)
	if m.Epoch() == e0 {
		t.Error("mutating update kept the epoch")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m, err := New(mustParse(t, ctrlSrc), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	update(t, m, []ast.Atom{own("E", "F", 0.9)}, nil)
	update(t, m, nil, []ast.Atom{own("E", "F", 0.9)})
	c := m.Stats()
	if c.Updates != 2 || c.DeltaRounds == 0 {
		t.Errorf("counters = %+v", c)
	}
}

// differentialPools maps each program to the base atoms random sequences
// draw from: the program's own facts plus novel ones that extend, bridge, or
// exempt parts of the instance.
func differentialPools() map[string][]ast.Atom {
	entities := []string{"A", "B", "C", "D", "E"}
	var ownPool []ast.Atom
	for i, x := range entities {
		for j, y := range entities {
			if i == j {
				continue
			}
			ownPool = append(ownPool, own(x, y, 0.55), own(x, y, 0.3))
		}
	}
	ctrl := append([]ast.Atom{}, ownPool...)
	for _, x := range entities {
		ctrl = append(ctrl, atom1("Company", x))
	}
	var agg []ast.Atom
	for _, b := range []string{"B1", "B2"} {
		for _, c := range []string{"C1", "C2", "C3"} {
			agg = append(agg, loan(b, c, 10.0), loan(b, c, 2.5))
		}
	}
	var neg []ast.Atom
	for _, f := range []string{"F1", "F2", "F3"} {
		for _, tgt := range []string{"T1", "T2"} {
			neg = append(neg, own(f, tgt, 0.7))
		}
		neg = append(neg, atom1("Exempt", f), atom1("Foreign", f))
	}
	neg = append(neg, atom1("Strategic", "T1"), atom1("Strategic", "T2"))
	var negagg []ast.Atom
	for _, c := range []string{"C1", "C2", "C3"} {
		negagg = append(negagg, loan("B1", c, 10.0), loan("B2", c, 5.0), atom1("Waived", c))
	}
	return map[string][]ast.Atom{
		ctrlSrc:   ctrl,
		closeSrc:  ownPool,
		aggSrc:    agg,
		negSrc:    neg,
		negAggSrc: negagg,
	}
}

// TestDifferentialRandomSequences drives every differential program through
// random add/retract sequences under 24 seeds each, checking maintained-vs-
// scratch equivalence after every single update.
func TestDifferentialRandomSequences(t *testing.T) {
	const (
		seeds     = 24
		updateLen = 10
	)
	opts := chase.Options{MaxRounds: 200, MaxFacts: 50_000}
	for name, pool := range differentialPools() {
		prog := mustParse(t, name)
		label := prog.Name
		t.Run(label, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m, err := New(mustParse(t, name), opts)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for step := 0; step < updateLen; step++ {
					var add, retract []ast.Atom
					for n := rng.Intn(3) + 1; n > 0; n-- {
						a := pool[rng.Intn(len(pool))]
						if rng.Intn(2) == 0 {
							add = append(add, a)
						} else {
							retract = append(retract, a)
						}
					}
					// Skip retractions that hit a derived atom (an error by
					// contract, exercised in its own test).
					res, err := m.Result()
					if err != nil {
						t.Fatalf("seed %d step %d: %v", seed, step, err)
					}
					ok := true
					for _, a := range retract {
						if f := res.Store.Lookup(a); f != nil && !f.Extensional {
							ok = false
						}
					}
					for _, a := range add {
						if f := res.Store.Lookup(a); f != nil && !f.Extensional {
							ok = false // promotion changes extensionality; keep sequences pure
						}
					}
					if !ok {
						continue
					}
					got, _, err := m.Update(add, retract)
					if err != nil {
						t.Fatalf("seed %d step %d: update(%v, -%v): %v", seed, step, add, retract, err)
					}
					checkEquivalent(t, fmt.Sprintf("%s seed %d step %d", label, seed, step),
						got, scratchRun(t, m, opts))
				}
			}
		})
	}
}

// hasExistentialHead reports whether a rule head mentions a variable no body
// atom, assignment, or aggregation binds. Maintained and scratch runs label
// their invented nulls differently, so the fuzz harness skips such programs
// (the curated suites cover every bundled app, none of which needs nulls).
func hasExistentialHead(p *ast.Program) bool {
	for _, r := range p.Rules {
		bound := map[string]bool{}
		for _, a := range r.Body {
			for _, v := range a.Variables() {
				bound[v] = true
			}
		}
		for _, as := range r.Assignments {
			bound[as.Target] = true
		}
		if r.Aggregation != nil {
			bound[r.Aggregation.Target] = true
		}
		for _, v := range r.Head.Variables() {
			if !bound[v] {
				return true
			}
		}
	}
	return false
}

// FuzzIncrementalDifferential fuzzes whole programs plus an update script:
// the ops bytes toggle the program's own base facts in and out of the
// instance through the maintainer, and the maintained fixpoint must stay
// equivalent to a from-scratch chase of the surviving base after every
// update.
func FuzzIncrementalDifferential(f *testing.F) {
	for _, src := range []string{ctrlSrc, closeSrc, aggSrc, negSrc, negAggSrc} {
		f.Add(src, []byte{0x00, 0x03, 0x81, 0x05, 0x02, 0x84})
	}
	f.Fuzz(func(t *testing.T, src string, ops []byte) {
		if len(src) > 1<<12 || len(ops) > 24 {
			t.Skip("oversized input")
		}
		prog, err := parser.Parse(src)
		if err != nil || len(prog.Facts) == 0 {
			t.Skip()
		}
		if hasExistentialHead(prog) {
			t.Skip("null labels differ between maintained and scratch runs")
		}
		opts := chase.Options{MaxRounds: 50, MaxFacts: 2000}
		m, err := New(prog, opts)
		if err != nil {
			t.Skip() // invalid or non-terminating program: nothing to maintain
		}
		pool := append([]ast.Atom{}, prog.Facts...)
		for _, op := range ops {
			a := pool[int(op&0x7f)%len(pool)]
			res, err := m.Result()
			if err != nil {
				t.Fatalf("result: %v", err)
			}
			if f := res.Store.Lookup(a); f != nil && !f.Extensional {
				continue // derived collision: retract is an error, add is a promotion
			}
			var add, retract []ast.Atom
			if op&0x80 == 0 {
				retract = []ast.Atom{a}
			} else {
				add = []ast.Atom{a}
			}
			got, _, err := m.Update(add, retract)
			if err != nil {
				t.Skip() // e.g. a constraint violation poisoned the maintainer
			}
			p := *prog
			p.Facts = m.BaseFacts()
			scratch, err := chase.Run(&p, opts)
			if err != nil {
				t.Skip()
			}
			checkEquivalent(t, "fuzz", got, scratch)
		}
	})
}

// ballastOwnership is a layered ownership graph over entities of its own
// (Z…): 2·width edges per layer gap, about 58% of them majority edges, so
// control and close links propagate through it.
func ballastOwnership(layers, width int) []ast.Atom {
	rng := rand.New(rand.NewSource(99))
	node := func(l, i int) string { return fmt.Sprintf("Z%d_%d", l, i) }
	var facts []ast.Atom
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for _, j := range rng.Perm(width)[:2] {
				facts = append(facts, own(node(l, i), node(l+1, j), 0.3+float64(rng.Intn(50))/100))
			}
		}
	}
	return facts
}

// ballastLoans is a loan book over banks and clients of its own (ZB…, ZC…):
// six loans per bank, every 25th client waived.
func ballastLoans(banks int) []ast.Atom {
	rng := rand.New(rand.NewSource(98))
	var facts []ast.Atom
	for b := 0; b < banks; b++ {
		for _, c := range rng.Perm(banks)[:6] {
			facts = append(facts, loan(fmt.Sprintf("ZB%d", b), fmt.Sprintf("ZC%d", c), float64(1+rng.Intn(20))))
		}
	}
	for c := 0; c < banks; c += 25 {
		facts = append(facts, atom1("Waived", fmt.Sprintf("ZC%d", c)))
	}
	return facts
}

// bulkDeltas ties each pool entity to two dozen ballast entities at once:
// deltas big enough to get past the batch executor's small-delta fallbacks,
// which single pool atoms never are.
func bulkDeltas(entities []string, edge func(x string, k int) ast.Atom) [][]ast.Atom {
	var bulk [][]ast.Atom
	for _, x := range entities {
		var edges []ast.Atom
		for k := 0; k < 24; k++ {
			edges = append(edges, edge(x, k))
		}
		bulk = append(bulk, edges)
	}
	return bulk
}

// TestBatchIncrementalDifferential drives a maintainer through random
// add/retract sequences over instances big enough that the engine evaluates
// every differential program on the batch executor: each program's pool
// atoms sit on top of a ballast that puts every rule's largest body
// predicate past the cut-over. At the end of every sequence the maintained
// instance must be equivalent to a from-scratch chase. The strategy counters must show batch passes during
// the updates, not just the initial run, and columnar rebuilds — retractions
// invalidate the columnar indexes, so the batch pass after one exercises the
// rebuild path. (The same programs run in frame-versus-batch lockstep with
// the executor pinned next to the test hook:
// internal/chase.TestIncrementalExecutorLockstep.)
func TestBatchIncrementalDifferential(t *testing.T) {
	const (
		seeds     = 12
		updateLen = 8
	)
	opts := chase.Options{MaxRounds: 200, MaxFacts: 500_000}
	pools := differentialPools()
	ownBallast := ballastOwnership(2, 2100)
	ownBulk := bulkDeltas([]string{"A", "B", "C", "D", "E"}, func(x string, k int) ast.Atom {
		return own(x, fmt.Sprintf("Z0_%d", k), 0.55)
	})
	loanBallast := ballastLoans(800)
	loanBulk := bulkDeltas([]string{"B1", "B2"}, func(x string, k int) ast.Atom {
		return loan(x, fmt.Sprintf("ZC%d", k), 3.0)
	})
	// The negation program joins Control with Strategic and Exempt, so its
	// ballast is a layer deeper (Control itself has to pass the cut-over) and
	// marks every other company strategic and every third one exempt.
	negBallast := ballastOwnership(3, 2100)
	for i := 0; i < 2100; i += 2 {
		negBallast = append(negBallast, atom1("Strategic", fmt.Sprintf("Z1_%d", i)), atom1("Strategic", fmt.Sprintf("Z2_%d", i)))
	}
	for i := 0; i < 2100; i += 3 {
		negBallast = append(negBallast, atom1("Exempt", fmt.Sprintf("Z0_%d", i)), atom1("Exempt", fmt.Sprintf("Z1_%d", i)))
	}
	negBulk := bulkDeltas([]string{"F1", "F2", "F3"}, func(x string, k int) ast.Atom {
		return own(x, fmt.Sprintf("Z1_%d", k), 0.7)
	})
	for _, c := range []struct {
		src     string
		ballast []ast.Atom
		bulk    [][]ast.Atom
	}{
		{ctrlSrc, ownBallast, ownBulk},
		{closeSrc, ownBallast, ownBulk},
		{aggSrc, loanBallast, loanBulk},
		{negSrc, negBallast, negBulk},
		{negAggSrc, loanBallast, loanBulk},
	} {
		pool := pools[c.src]
		label := mustParse(t, c.src).Name
		t.Run(label, func(t *testing.T) {
			var updateBatchJoins, rebuilds uint64
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				prog := mustParse(t, c.src)
				prog.Facts = append(prog.Facts, c.ballast...)
				m, err := New(prog, opts)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				initial, err := m.Result()
				if err != nil {
					t.Fatal(err)
				}
				if initial.JoinStats.BatchJoins == 0 {
					t.Fatalf("seed %d: initial run stayed below the cut-over: %+v", seed, initial.JoinStats)
				}
				last := initial
				for step := 0; step < updateLen; step++ {
					var add, retract []ast.Atom
					if edges := c.bulk[rng.Intn(len(c.bulk))]; step%2 == 0 {
						if last.Store.Lookup(edges[0]) == nil {
							add = edges
						} else {
							retract = edges
						}
					} else {
						for n := rng.Intn(3) + 1; n > 0; n-- {
							a := pool[rng.Intn(len(pool))]
							if rng.Intn(2) == 0 {
								add = append(add, a)
							} else {
								retract = append(retract, a)
							}
						}
					}
					// Skip deltas that touch a derived atom, as
					// TestDifferentialRandomSequences does.
					ok := true
					for _, a := range append(append([]ast.Atom{}, add...), retract...) {
						if f := last.Store.Lookup(a); f != nil && !f.Extensional {
							ok = false
						}
					}
					if !ok {
						continue
					}
					got, _, err := m.Update(add, retract)
					if err != nil {
						t.Fatalf("seed %d step %d: update(%v, -%v): %v", seed, step, add, retract, err)
					}
					last = got
				}
				checkEquivalent(t, fmt.Sprintf("%s seed %d", label, seed), last, scratchRun(t, m, opts))
				updateBatchJoins += last.JoinStats.BatchJoins - initial.JoinStats.BatchJoins
				rebuilds += last.JoinStats.Rebuilds
			}
			if updateBatchJoins == 0 || rebuilds == 0 {
				t.Errorf("updates never reached the batch executor's rebuild path: %d batch joins during updates, %d rebuilds",
					updateBatchJoins, rebuilds)
			}
		})
	}
}
