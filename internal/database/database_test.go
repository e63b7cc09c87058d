package database

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/term"
)

func own(x, y string, s float64) ast.Atom {
	return ast.NewAtom("Own", term.Str(x), term.Str(y), term.Float(s))
}

func TestAddAndLookup(t *testing.T) {
	s := NewStore()
	f1, added, err := s.Add(own("A", "B", 0.6), true)
	if err != nil || !added {
		t.Fatalf("Add: %v added=%v", err, added)
	}
	if f1.ID != 0 || !f1.Extensional {
		t.Errorf("fact = %+v", f1)
	}
	// Duplicate insertion is idempotent.
	f2, added, err := s.Add(own("A", "B", 0.6), false)
	if err != nil || added {
		t.Fatalf("duplicate Add: %v added=%v", err, added)
	}
	if f2.ID != f1.ID {
		t.Error("duplicate got new id")
	}
	if !f2.Extensional {
		t.Error("duplicate Add overwrote extensionality")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.Lookup(own("A", "B", 0.6)); got != f1 {
		t.Error("Lookup missed")
	}
	if got := s.Lookup(own("A", "B", 0.7)); got != nil {
		t.Error("Lookup found absent fact")
	}
	if !s.Contains(own("A", "B", 0.6)) || s.Contains(own("X", "Y", 0.1)) {
		t.Error("Contains wrong")
	}
}

func TestAddNonGround(t *testing.T) {
	s := NewStore()
	if _, _, err := s.Add(ast.NewAtom("P", term.Var("X")), true); err == nil {
		t.Error("non-ground atom accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAdd did not panic")
		}
	}()
	s.MustAdd(ast.NewAtom("P", term.Var("X")), true)
}

func TestByPredicateInsertionOrder(t *testing.T) {
	s := NewStore()
	s.MustAdd(own("A", "B", 0.6), true)
	s.MustAdd(own("B", "C", 0.3), true)
	s.MustAdd(ast.NewAtom("Company", term.Str("A")), true)
	s.MustAdd(own("C", "D", 0.9), true)
	ids := s.ByPredicate("Own")
	if len(ids) != 3 {
		t.Fatalf("Own count = %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Error("ByPredicate not in insertion order")
		}
	}
	if len(s.ByPredicate("Missing")) != 0 {
		t.Error("missing predicate returned facts")
	}
}

func TestMatch(t *testing.T) {
	s := NewStore()
	s.MustAdd(own("A", "B", 0.6), true)
	s.MustAdd(own("A", "C", 0.3), true)
	s.MustAdd(own("B", "C", 0.9), true)

	// All Own facts.
	all := s.Match(ast.NewAtom("Own", term.Var("X"), term.Var("Y"), term.Var("S")))
	if len(all) != 3 {
		t.Errorf("open pattern matched %d", len(all))
	}
	// First position bound.
	fromA := s.Match(ast.NewAtom("Own", term.Str("A"), term.Var("Y"), term.Var("S")))
	if len(fromA) != 2 {
		t.Errorf("Own(A,_,_) matched %d", len(fromA))
	}
	// Fully ground.
	exact := s.Match(own("B", "C", 0.9))
	if len(exact) != 1 {
		t.Errorf("ground pattern matched %d", len(exact))
	}
	// No match.
	if got := s.Match(own("Z", "Z", 0.1)); len(got) != 0 {
		t.Errorf("absent pattern matched %d", len(got))
	}
	// Repeated variable must force equal positions.
	s.MustAdd(own("D", "D", 0.2), true)
	self := s.Match(ast.NewAtom("Own", term.Var("X"), term.Var("X"), term.Var("S")))
	if len(self) != 1 {
		t.Errorf("Own(X,X,_) matched %d, want 1", len(self))
	}
}

func TestMatchBind(t *testing.T) {
	s := NewStore()
	s.MustAdd(own("A", "B", 0.6), true)
	s.MustAdd(own("B", "C", 0.9), true)

	pattern := ast.NewAtom("Own", term.Var("X"), term.Var("Y"), term.Var("S"))
	base := term.Substitution{"X": term.Str("B")}
	bs := s.MatchBind(pattern, base)
	if len(bs) != 1 {
		t.Fatalf("bindings = %d", len(bs))
	}
	b := bs[0]
	if !b.Sub["Y"].Equal(term.Str("C")) {
		t.Errorf("Y bound to %v", b.Sub["Y"])
	}
	if f, _ := b.Sub["S"].AsFloat(); f != 0.9 {
		t.Errorf("S bound to %v", b.Sub["S"])
	}
	// Base substitution must not be mutated.
	if len(base) != 1 {
		t.Errorf("base mutated: %v", base)
	}
}

func TestMatchBindConflict(t *testing.T) {
	s := NewStore()
	s.MustAdd(own("A", "B", 0.6), true)
	pattern := ast.NewAtom("Own", term.Var("X"), term.Var("X"), term.Var("S"))
	if bs := s.MatchBind(pattern, term.Substitution{}); len(bs) != 0 {
		t.Errorf("conflicting repeated variable bound: %v", bs)
	}
}

func TestIndexSelectivity(t *testing.T) {
	// With many facts, a bound position should restrict candidates; we can
	// only observe correctness here, but exercise the index path with a
	// value that appears in a small bucket.
	s := NewStore()
	for i := 0; i < 100; i++ {
		s.MustAdd(own(fmt.Sprintf("N%d", i), "HUB", float64(i)/100), true)
	}
	s.MustAdd(own("HUB", "RARE", 0.99), true)
	got := s.Match(ast.NewAtom("Own", term.Var("X"), term.Str("RARE"), term.Var("S")))
	if len(got) != 1 {
		t.Errorf("matched %d, want 1", len(got))
	}
}

func TestPredicatesAndDump(t *testing.T) {
	s := NewStore()
	s.MustAdd(own("A", "B", 0.6), true)
	s.MustAdd(ast.NewAtom("Company", term.Str("A")), true)
	preds := s.Predicates()
	if len(preds) != 2 || preds[0] != "Company" || preds[1] != "Own" {
		t.Errorf("Predicates = %v", preds)
	}
	d := s.Dump()
	if !strings.Contains(d, "Own(A, B, 0.6)") || !strings.Contains(d, "Company(A)") {
		t.Errorf("Dump = %q", d)
	}
}

func TestGet(t *testing.T) {
	s := NewStore()
	f, _ := s.MustAdd(own("A", "B", 0.6), true)
	if s.Get(f.ID) != f {
		t.Error("Get returned different fact")
	}
}

// Property: Add is idempotent and Len equals the number of distinct keys.
func TestAddIdempotentProperty(t *testing.T) {
	f := func(names []string) bool {
		s := NewStore()
		distinct := map[string]bool{}
		for _, n := range names {
			a := ast.NewAtom("P", term.Str(n))
			s.MustAdd(a, true)
			distinct[a.Key()] = true
		}
		return s.Len() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every fact matched by a pattern actually unifies with it.
func TestMatchSoundProperty(t *testing.T) {
	s := NewStore()
	names := []string{"A", "B", "C", "D"}
	for _, x := range names {
		for _, y := range names {
			s.MustAdd(own(x, y, 0.5), true)
		}
	}
	pattern := ast.NewAtom("Own", term.Str("B"), term.Var("Y"), term.Var("S"))
	for _, id := range s.Match(pattern) {
		f := s.Get(id)
		if f.Atom.Terms[0].StringVal() != "B" {
			t.Errorf("unsound match: %v", f)
		}
	}
	if got := len(s.Match(pattern)); got != len(names) {
		t.Errorf("matched %d, want %d", got, len(names))
	}
}

// Frontier tracks the append boundary: it equals Len and advances only on
// genuinely new facts.
func TestFrontier(t *testing.T) {
	s := NewStore()
	if s.Frontier() != 0 {
		t.Fatalf("empty store frontier = %d, want 0", s.Frontier())
	}
	s.MustAdd(own("A", "B", 0.5), true)
	if s.Frontier() != 1 {
		t.Fatalf("frontier = %d, want 1", s.Frontier())
	}
	s.MustAdd(own("A", "B", 0.5), true) // duplicate: no new fact
	if s.Frontier() != 1 {
		t.Fatalf("frontier moved on duplicate add: %d", s.Frontier())
	}
	if int(s.Frontier()) != s.Len() {
		t.Fatalf("frontier %d != len %d", s.Frontier(), s.Len())
	}
}

// Retract tombstones a fact: invisible to every lookup path, ids stable,
// re-add gets a fresh id, epoch advances on every mutation.
func TestRetract(t *testing.T) {
	s := NewStore()
	f0, _ := s.MustAdd(own("A", "B", 0.6), true)
	f1, _ := s.MustAdd(own("B", "C", 0.9), true)
	f2, _ := s.MustAdd(own("A", "C", 0.3), true)
	e0 := s.Epoch()

	if err := s.Retract(f1.ID); err != nil {
		t.Fatalf("Retract: %v", err)
	}
	if s.Epoch() != e0+1 {
		t.Errorf("epoch = %d, want %d", s.Epoch(), e0+1)
	}
	if !s.Retracted(f1.ID) || s.Retracted(f0.ID) || s.Retracted(f2.ID) {
		t.Error("Retracted flags wrong")
	}
	if s.LiveLen() != 2 || s.Len() != 3 {
		t.Errorf("LiveLen = %d Len = %d", s.LiveLen(), s.Len())
	}
	// Invisible to key lookup and containment.
	if s.Contains(own("B", "C", 0.9)) || s.Lookup(own("B", "C", 0.9)) != nil {
		t.Error("retracted fact visible to Contains/Lookup")
	}
	// Invisible to per-predicate extent and pattern matching.
	if ids := s.ByPredicate("Own"); len(ids) != 2 {
		t.Errorf("ByPredicate = %v", ids)
	}
	open := ast.NewAtom("Own", term.Var("X"), term.Var("Y"), term.Var("S"))
	if got := s.Match(open); len(got) != 2 {
		t.Errorf("Match = %v", got)
	}
	// Invisible to the (predicate, position, value) index bucket: the only
	// fact with C in position 1 besides f2 was f1.
	indexed := s.Match(ast.NewAtom("Own", term.Var("X"), term.Str("C"), term.Var("S")))
	if len(indexed) != 1 || indexed[0] != f2.ID {
		t.Errorf("indexed Match = %v, want [%d]", indexed, f2.ID)
	}
	if s.MatchAny(own("B", "C", 0.9)) {
		t.Error("MatchAny saw retracted fact")
	}
	if len(s.MatchBind(open, term.Substitution{"X": term.Str("B")})) != 0 {
		t.Error("MatchBind saw retracted fact")
	}
	// Survivors keep their ids; the tombstone stays resolvable for
	// provenance readers.
	if s.Get(f0.ID) != f0 || s.Get(f2.ID) != f2 || s.Get(f1.ID) != f1 {
		t.Error("Get renumbered facts")
	}
	// Idempotent: a second retract is a no-op and does not bump the epoch.
	e1 := s.Epoch()
	if err := s.Retract(f1.ID); err != nil {
		t.Fatalf("double Retract: %v", err)
	}
	if s.Epoch() != e1 {
		t.Error("no-op Retract bumped epoch")
	}
	// Re-adding the atom interns a fresh fact under a new id.
	f3, added := s.MustAdd(own("B", "C", 0.9), true)
	if !added || f3.ID != 3 {
		t.Fatalf("re-add: added=%v id=%d, want fresh id 3", added, f3.ID)
	}
	if s.Retracted(f3.ID) || !s.Retracted(f1.ID) {
		t.Error("re-add revived or inherited the tombstone")
	}
	if got := s.Match(open); len(got) != 3 {
		t.Errorf("post-re-add Match = %v", got)
	}
}

// Retracted facts are invisible to the slot-based candidate selection the
// compiled-plan executor uses.
func TestRetractSlots(t *testing.T) {
	s := NewStore()
	f0, _ := s.MustAdd(own("A", "B", 0.6), true)
	f1, _ := s.MustAdd(own("A", "C", 0.3), true)
	if err := s.Retract(f0.ID); err != nil {
		t.Fatalf("Retract: %v", err)
	}
	a, _ := s.Interner().Lookup(term.Str("A"))
	p := SlotPattern{Predicate: "Own", Ops: []SlotOp{
		{Kind: SlotConst, Val: a},
		{Kind: SlotWrite, Slot: 0},
		{Kind: SlotWrite, Slot: 1},
	}}
	frame := make([]term.ValueID, 2)
	cands := s.CandidatesSlots(p, frame)
	if len(cands) != 1 || cands[0] != f1.ID {
		t.Errorf("CandidatesSlots = %v, want [%d]", cands, f1.ID)
	}
	var seen []FactID
	s.MatchBindSlots(p, frame, func(f *Fact) bool {
		seen = append(seen, f.ID)
		return true
	})
	if len(seen) != 1 || seen[0] != f1.ID {
		t.Errorf("MatchBindSlots yielded %v, want [%d]", seen, f1.ID)
	}
}

// Retract rejects unknown ids; a fully retracted predicate disappears from
// Predicates and Dump.
func TestRetractEdgeCases(t *testing.T) {
	s := NewStore()
	f, _ := s.MustAdd(ast.NewAtom("Company", term.Str("A")), true)
	if err := s.Retract(FactID(99)); err == nil {
		t.Error("Retract of unknown id succeeded, want error")
	}
	if err := s.Retract(f.ID); err != nil {
		t.Fatalf("Retract: %v", err)
	}
	if len(s.Predicates()) != 0 {
		t.Errorf("Predicates = %v, want empty", s.Predicates())
	}
	if s.Dump() != "" {
		t.Errorf("Dump = %q, want empty", s.Dump())
	}
}

// Epoch advances on Add but not on duplicate Add (no mutation happens).
func TestEpoch(t *testing.T) {
	s := NewStore()
	if s.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d", s.Epoch())
	}
	s.MustAdd(own("A", "B", 0.5), true)
	if s.Epoch() != 1 {
		t.Errorf("epoch after Add = %d, want 1", s.Epoch())
	}
	s.MustAdd(own("A", "B", 0.5), true)
	if s.Epoch() != 1 {
		t.Errorf("epoch after duplicate Add = %d, want 1", s.Epoch())
	}
}
