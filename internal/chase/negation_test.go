package chase

import (
	"strings"
	"testing"

	"repro/internal/parser"
)

// eligibleSrc uses stratified negation: an entity is an eligible
// counterparty when it has capital and is not in default after the stress
// propagation.
const eligibleSrc = `
@output("Eligible").
@label("alpha") Default(F) :- Shock(F, S), HasCapital(F, P1), S > P1.
@label("beta")  Risk(C, E) :- Default(D), Debts(D, C, V), E = sum(V).
@label("gamma") Default(C) :- HasCapital(C, P2), Risk(C, E), P2 < E.
@label("el")    Eligible(X) :- HasCapital(X, P), not Default(X).

Shock("A", 6.0).
HasCapital("A", 5.0).
HasCapital("B", 2.0).
HasCapital("C", 10.0).
HasCapital("D", 4.0).
Debts("A", "B", 7.0).
Debts("B", "C", 2.0).
Debts("B", "C", 9.0).
`

func TestStratifiedNegation(t *testing.T) {
	res := runSrc(t, eligibleSrc, Options{})
	eligible := map[string]bool{}
	for _, id := range res.Derived("Eligible") {
		eligible[res.Store.Get(id).Atom.Terms[0].StringVal()] = true
	}
	// A, B and C default through the cascade; only D stays eligible.
	if len(eligible) != 1 || !eligible["D"] {
		t.Errorf("eligible = %v, want {D}\n%s", eligible, res.Store.Dump())
	}
}

func TestNegationStratumOrder(t *testing.T) {
	// If negation were evaluated naively within one fixpoint, Eligible(C)
	// would fire in early rounds (C defaults only after two propagation
	// steps). The stratified engine must not derive it at all.
	res := runSrc(t, eligibleSrc, Options{})
	a, _ := parser.ParseAtom(`Eligible("C")`)
	if res.Store.Contains(a) {
		t.Error("Eligible(C) derived despite later Default(C)")
	}
	// Both strategies agree.
	prog := parser.MustParse(eligibleSrc)
	naive, err := runTuned(naiveRef, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	semi := MustRun(prog, Options{})
	if !sameFactSet(naive, semi) {
		t.Error("naive and semi-naive disagree under negation")
	}
}

func TestUnstratifiedProgramRejected(t *testing.T) {
	src := `
@output("P").
P(X) :- Base(X), not Q(X).
Q(X) :- Base(X), not P(X).
Base("a").
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, Options{}); err == nil {
		t.Error("recursion through negation accepted")
	} else if !strings.Contains(err.Error(), "stratified") {
		t.Errorf("error = %v", err)
	}
}

func TestNegationOverEDB(t *testing.T) {
	src := `
@output("Uncovered").
Uncovered(X) :- Exposure(X, V), not Collateral(X).
Exposure("a", 5.0).
Exposure("b", 3.0).
Collateral("a").
`
	res := runSrc(t, src, Options{})
	ids := res.Derived("Uncovered")
	if len(ids) != 1 || res.Store.Get(ids[0]).Atom.Terms[0].StringVal() != "b" {
		t.Errorf("uncovered = %v", res.Store.Dump())
	}
}

func TestConstraintViolated(t *testing.T) {
	src := `
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
% no company may control a sanctioned entity
@label("nc") :- Control(X, Y), Sanctioned(Y).
Own("A", "B", 0.6).
Sanctioned("B").
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(prog, Options{})
	if err == nil {
		t.Fatal("violated constraint accepted")
	}
	for _, sub := range []string{"constraint nc", "Control(A, B)", "Sanctioned(B)"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error %q missing %q", err, sub)
		}
	}
}

func TestConstraintSatisfied(t *testing.T) {
	src := `
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
:- Control(X, Y), Sanctioned(Y).
Own("A", "B", 0.6).
Sanctioned("Z").
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, Options{}); err != nil {
		t.Errorf("satisfied constraint rejected: %v", err)
	}
}

func TestConstraintWithNegationAndCondition(t *testing.T) {
	// Every large exposure must be collateralized.
	src := `
@output("Exposure").
Exposure(X, V) :- RawExposure(X, V).
:- Exposure(X, V), V > 10.0, not Collateral(X).
RawExposure("a", 15.0).
Collateral("a").
RawExposure("b", 5.0).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, Options{}); err != nil {
		t.Errorf("constraint rejected: %v", err)
	}
	// Now remove the collateral: violation.
	src2 := strings.Replace(src, "Collateral(\"a\").\n", "", 1) + "Collateral(\"zzz\").\n"
	prog2, err := parser.Parse(src2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog2, Options{}); err == nil {
		t.Error("uncollateralized exposure accepted")
	}
}

func TestFactsOnlyProgram(t *testing.T) {
	prog, err := parser.Parse(`P("a"). P("b").`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Store.Len() != 2 || res.Rounds != 1 {
		t.Errorf("store = %d facts, rounds = %d", res.Store.Len(), res.Rounds)
	}
}
