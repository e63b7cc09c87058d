package chase

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

// randomOwnership builds a random layered ownership graph with companies
// and shares; used as the differential-testing workload.
func randomOwnership(seed int64) []ast.Atom {
	rng := rand.New(rand.NewSource(seed))
	layers := 2 + rng.Intn(3)
	width := 1 + rng.Intn(3)
	var facts []ast.Atom
	node := func(l, i int) string { return fmt.Sprintf("L%dC%d", l, i) }
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			facts = append(facts, ast.NewAtom("Company", term.Str(node(l, i))))
			if l == 0 {
				continue
			}
			for t := 0; t <= rng.Intn(2); t++ {
				share := 0.1 + float64(rng.Intn(70))/100
				facts = append(facts, ast.NewAtom("Own",
					term.Str(node(l-1, rng.Intn(width))), term.Str(node(l, i)), term.Float(share)))
			}
		}
	}
	return facts
}

// factSet returns the canonical sorted set of non-superseded facts.
func factSet(r *Result) []string {
	var out []string
	for _, f := range r.Store.Facts() {
		if r.Superseded(f.ID) {
			continue
		}
		out = append(out, f.Atom.Key())
	}
	sort.Strings(out)
	return out
}

func sameFactSet(a, b *Result) bool {
	x, y := factSet(a), factSet(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// TestSemiNaiveEquivalenceFixedPrograms: naive and semi-naive evaluation
// derive identical fact sets on every bundled program shape.
func TestSemiNaiveEquivalenceFixedPrograms(t *testing.T) {
	sources := []string{
		stressSimpleSrc,
		irishBankSrc,
		twoChannelSrc,
		`
@output("CloseLink").
@label("c1") MOwn(X, Y, S) :- Own(X, Y, S).
@label("c2") MOwn(X, Y, S) :- MOwn(X, Z, S1), Own(Z, Y, S2), S = S1 * S2, S >= 0.01.
@label("c3") CloseLink(X, Y) :- MOwn(X, Y, S), TS = sum(S), TS >= 0.2.
Own("A", "B", 0.5). Own("B", "C", 0.5). Own("A", "C", 0.1). Own("C", "D", 0.5).
`,
	}
	for i, src := range sources {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		semi, err := Run(prog, Options{})
		if err != nil {
			t.Fatalf("source %d semi-naive: %v", i, err)
		}
		naive, err := runTuned(naiveRef, prog, Options{})
		if err != nil {
			t.Fatalf("source %d naive: %v", i, err)
		}
		if !sameFactSet(semi, naive) {
			t.Errorf("source %d: fact sets differ\nsemi:\n%s\nnaive:\n%s",
				i, semi.Store.Dump(), naive.Store.Dump())
		}
	}
}

// TestSemiNaiveEquivalenceProperty: random layered ownership graphs produce
// identical control closures under both evaluation strategies.
func TestSemiNaiveEquivalenceProperty(t *testing.T) {
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
	f := func(seed int64) bool {
		facts := randomOwnership(seed)
		semi, err1 := Run(prog, Options{ExtraFacts: facts})
		naive, err2 := runTuned(naiveRef, prog, Options{ExtraFacts: facts})
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return sameFactSet(semi, naive)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSemiNaiveEquivalenceAtScale: the two evaluation strategies agree on a
// 60-hop control chain, where semi-naive evaluation runs sixty rounds of
// deltas against accumulated aggregation groups.
func TestSemiNaiveEquivalenceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale equivalence skipped in -short mode")
	}
	prog := parser.MustParse(`
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("s2") Control(X, X) :- Company(X).
@label("s3") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.
`)
	facts := benchChainFacts(60)
	semi, err := Run(prog, Options{ExtraFacts: facts})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := runTuned(naiveRef, prog, Options{ExtraFacts: facts})
	if err != nil {
		t.Fatal(err)
	}
	if !sameFactSet(semi, naive) {
		t.Errorf("fact sets differ: %d vs %d facts", semi.Store.Len(), naive.Store.Len())
	}
}

// TestSemiNaiveProofEquivalence: the canonical proofs coincide too (same
// chase step sequence), so explanations are identical across strategies.
func TestSemiNaiveProofEquivalence(t *testing.T) {
	prog := parser.MustParse(twoChannelSrc)
	semi := MustRun(prog, Options{})
	naive, err := runTuned(naiveRef, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(semi.Steps) != len(naive.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(semi.Steps), len(naive.Steps))
	}
	for i := range semi.Steps {
		a := semi.Store.Get(semi.Steps[i].Fact).Atom.Key()
		b := naive.Store.Get(naive.Steps[i].Fact).Atom.Key()
		if a != b {
			t.Errorf("step %d differs: %s vs %s", i, a, b)
		}
		if semi.Steps[i].Rule.Label != naive.Steps[i].Rule.Label {
			t.Errorf("step %d rule differs", i)
		}
	}
}
