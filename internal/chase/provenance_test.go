package chase

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/database"
	"repro/internal/parser"
)

// checkProvenanceInvariants asserts the structural well-formedness every
// chase result must satisfy:
//
//  1. premises precede conclusions (fact ids strictly smaller);
//  2. step numbers are dense and chronological;
//  3. every aggregation derivation's premises are exactly the union of its
//     contributors' premises;
//  4. the proof spine is connected: each spine step's fact is a premise of
//     the next spine step.
func checkProvenanceInvariants(t *testing.T, res *Result) {
	t.Helper()
	for i, d := range res.Steps {
		if d.Step != i {
			t.Fatalf("step %d recorded as %d", i, d.Step)
		}
		for _, prem := range d.Premises {
			if prem >= d.Fact {
				t.Errorf("step %d: premise #%d not earlier than conclusion #%d", i, prem, d.Fact)
			}
		}
		if d.IsAggregation() {
			want := map[database.FactID]bool{}
			for _, c := range d.Contributors {
				for _, id := range c.Premises {
					want[id] = true
				}
			}
			if len(want) != len(d.Premises) {
				t.Errorf("step %d: premises %v do not match contributor union (%d ids)",
					i, d.Premises, len(want))
			}
			for _, id := range d.Premises {
				if !want[id] {
					t.Errorf("step %d: premise #%d not contributed", i, id)
				}
			}
		}
	}
	for _, f := range res.Store.Facts() {
		if f.Extensional {
			continue
		}
		proof, err := res.ExtractProof(f.ID)
		if err != nil {
			t.Fatalf("proof of %v: %v", f, err)
		}
		for i := 0; i < len(proof.Spine)-1; i++ {
			fact := proof.Spine[i].Fact
			found := false
			for _, prem := range proof.Spine[i+1].Premises {
				if prem == fact {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("proof of %v: spine step %d not a premise of step %d", f, i, i+1)
			}
		}
		if last := proof.Spine[len(proof.Spine)-1]; last.Fact != f.ID {
			t.Errorf("proof of %v: spine does not end at the target", f)
		}
	}
}

func TestProvenanceInvariantsFixed(t *testing.T) {
	for _, src := range []string{stressSimpleSrc, irishBankSrc, twoChannelSrc, eligibleSrc} {
		res := runSrc(t, src, Options{})
		checkProvenanceInvariants(t, res)
	}
}

// TestProvenanceInvariantsProperty: the invariants hold over random
// ownership graphs.
func TestProvenanceInvariantsProperty(t *testing.T) {
	prog := parser.MustParse(`
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("s2") Control(X, X) :- Company(X).
@label("s3") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.
`)
	f := func(seed int64) bool {
		res, err := Run(prog, Options{ExtraFacts: randomOwnership(seed)})
		if err != nil {
			return false
		}
		sub := &testing.T{}
		checkProvenanceInvariants(sub, res)
		return !sub.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// diffResults asserts that two chase results are byte-for-byte identical:
// same facts with the same ids, same chase steps in the same order with the
// same rules and premise lists, same superseded set, same rendered chase
// graph, same round count.
func diffResults(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Rounds != got.Rounds {
		t.Errorf("%s: rounds differ: %d vs %d", label, want.Rounds, got.Rounds)
	}
	if w, g := want.Store.Dump(), got.Store.Dump(); w != g {
		t.Fatalf("%s: fact stores differ\nwant:\n%s\ngot:\n%s", label, w, g)
	}
	if w, g := want.Store.Len(), got.Store.Len(); w != g {
		t.Fatalf("%s: store sizes differ: %d vs %d", label, w, g)
	}
	for id := 0; id < want.Store.Len(); id++ {
		w, g := want.Store.Get(database.FactID(id)), got.Store.Get(database.FactID(id))
		if w.Atom.Key() != g.Atom.Key() || w.Extensional != g.Extensional {
			t.Fatalf("%s: fact #%d differs: %v vs %v", label, id, w, g)
		}
		if want.Superseded(w.ID) != got.Superseded(g.ID) {
			t.Errorf("%s: superseded(#%d) differs", label, id)
		}
	}
	if len(want.Steps) != len(got.Steps) {
		t.Fatalf("%s: step counts differ: %d vs %d", label, len(want.Steps), len(got.Steps))
	}
	for i := range want.Steps {
		w, g := want.Steps[i], got.Steps[i]
		if w.Fact != g.Fact || w.Rule.Label != g.Rule.Label {
			t.Fatalf("%s: step %d differs: %v vs %v", label, i, w, g)
		}
		if fmt.Sprint(w.Premises) != fmt.Sprint(g.Premises) {
			t.Fatalf("%s: step %d premise lists differ: %v vs %v", label, i, w.Premises, g.Premises)
		}
		ws, gs := w.Sub.Substitution(), g.Sub.Substitution()
		if len(ws) != len(gs) {
			t.Fatalf("%s: step %d substitution sizes differ: %v vs %v", label, i, ws, gs)
		}
		for v, wt := range ws {
			gt, ok := gs[v]
			if !ok || !wt.Equal(gt) || wt.Display() != gt.Display() {
				t.Fatalf("%s: step %d substitution differs at %s: %v vs %v", label, i, v, wt, gt)
			}
		}
		if len(w.Contributors) != len(g.Contributors) {
			t.Fatalf("%s: step %d contributor counts differ: %d vs %d", label, i, len(w.Contributors), len(g.Contributors))
		}
		for j := range w.Contributors {
			wc, gc := w.Contributors[j], g.Contributors[j]
			if fmt.Sprint(wc.Premises) != fmt.Sprint(gc.Premises) || !wc.Value.Equal(gc.Value) {
				t.Fatalf("%s: step %d contributor %d differs", label, i, j)
			}
		}
	}
	if w, g := want.Graph(), got.Graph(); w != g {
		t.Errorf("%s: chase graphs differ\nwant:\n%s\ngot:\n%s", label, w, g)
	}
}

// TestProvenancePremiseOrderStable pins down two provenance-ordering
// properties: premise lists are identical across repeated runs, and they
// stay in body-atom order — SortedFactIDs must never be applied on the
// emission path (it is reserved for per-proof reporting; see its doc
// comment).
func TestProvenancePremiseOrderStable(t *testing.T) {
	prog := parser.MustParse(twoChannelSrc)
	runs := []*Result{
		MustRun(prog, Options{}),
		MustRun(prog, Options{}),
	}
	for i, r := range runs[1:] {
		if len(r.Steps) != len(runs[0].Steps) {
			t.Fatalf("run %d: step count differs", i+1)
		}
		for s := range r.Steps {
			if fmt.Sprint(r.Steps[s].Premises) != fmt.Sprint(runs[0].Steps[s].Premises) {
				t.Errorf("run %d step %d: premise order differs: %v vs %v",
					i+1, s, r.Steps[s].Premises, runs[0].Steps[s].Premises)
			}
		}
	}
	// Body-atom order, not sorted order: a plain-rule step's premises must
	// map positionally onto the rule body's predicates.
	for _, d := range runs[0].Steps {
		if d.IsAggregation() {
			continue
		}
		if len(d.Premises) != len(d.Rule.Body) {
			t.Fatalf("step %d: %d premises for %d body atoms", d.Step, len(d.Premises), len(d.Rule.Body))
		}
		for i, id := range d.Premises {
			got := runs[0].Store.Get(id).Atom.Predicate
			want := d.Rule.Body[i].Predicate
			if got != want {
				t.Errorf("step %d premise %d: predicate %s does not match body atom %s (premises re-ordered?)",
					d.Step, i, got, want)
			}
		}
	}
}
