package chase

import (
	"fmt"
	"testing"

	"repro/internal/database"
	"repro/internal/parser"
	"repro/internal/term"
)

// planKitchenSrc exercises every body feature the plan compiler handles in
// one program: repeated variables within an atom, constants in body atoms,
// assignments with arithmetic, pushed-down conditions, stratified negation
// against an assigned value, an existential head, and an aggregation.
const planKitchenSrc = `
@output("Flagged").
@label("k1") Self(X) :- Own(X, X, S).
@label("k2") Reach(X, Y) :- Own(X, Y, S), S > 0.2.
@label("k3") Reach(X, Y) :- Reach(X, Z), Own(Z, Y, S), S > 0.2.
@label("k4") Exposure(X, E) :- Own(X, Y, S), Price(Y, P), E = S * P + 1.0.
@label("k5") Audit(X, C) :- Exposure(X, E), E > 2.0.
@label("k6") Flagged(X) :- Exposure(X, E), not Cleared(X, E), E >= 1.1.
@label("k7") Cleared(X, E) :- Own(X, "Sink", S), Price("Sink", P), E = S * P + 1.0.
@label("k8") Total(X, T) :- Own(X, Y, S), T = sum(S), T > 0.3.

Own("A", "A", 0.6).
Own("A", "B", 0.3).
Own("B", "C", 0.25).
Own("B", "Sink", 0.5).
Own("C", "Sink", 0.9).
Price("A", 2.0).
Price("B", 4.0).
Price("C", 1.0).
Price("Sink", 3.0).
`

// diffEngines runs the program under both engines and asserts byte-identical
// results, with the legacy engine as the baseline.
func diffEngines(t *testing.T, label, src string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	for _, naive := range []bool{false, true} {
		legacy, err := runTuned(legacyRef.withNaive(naive), prog, Options{})
		if err != nil {
			t.Fatalf("%s naive=%v legacy: %v", label, naive, err)
		}
		compiled, err := runTuned(frameOnly.withNaive(naive), prog, Options{})
		if err != nil {
			t.Fatalf("%s naive=%v compiled: %v", label, naive, err)
		}
		diffResults(t, fmt.Sprintf("%s naive=%v", label, naive), legacy, compiled)
	}
}

// TestCompiledLegacyEquivalenceFixedPrograms: the compiled slot-plan engine
// reproduces the legacy map-based engine byte for byte — facts, ids, steps,
// premise order, substitutions, aggregation contributors, chase graph — on
// every bundled program shape, in naive and semi-naive mode.
func TestCompiledLegacyEquivalenceFixedPrograms(t *testing.T) {
	sources := map[string]string{
		"stress-simple": stressSimpleSrc,
		"irish-bank":    irishBankSrc,
		"two-channel":   twoChannelSrc,
		"negation":      eligibleSrc,
		"kitchen-sink":  planKitchenSrc,
	}
	for name, src := range sources {
		diffEngines(t, name, src)
	}
}

// TestCompiledLegacyDifferentialRandomOwnership is the randomized
// differential: over 24 random layered ownership graphs, the compiled engine
// produces results identical to the legacy engine.
func TestCompiledLegacyDifferentialRandomOwnership(t *testing.T) {
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
	for seed := int64(0); seed < 24; seed++ {
		facts := randomOwnership(seed)
		legacy, err := runTuned(legacyRef, prog, Options{ExtraFacts: facts})
		if err != nil {
			t.Fatalf("seed %d legacy: %v", seed, err)
		}
		compiled, err := Run(prog, Options{ExtraFacts: facts})
		if err != nil {
			t.Fatalf("seed %d compiled: %v", seed, err)
		}
		diffResults(t, fmt.Sprintf("seed %d", seed), legacy, compiled)
	}
}

// TestPlanCompileShapes pins down the compiled representation of a body with
// a repeated variable and a pushable condition: slot numbering follows first
// occurrence, the second occurrence within one atom compiles to SlotSame
// (not SlotBound — its frame value is stale during bucket selection), a
// later atom reuses the slot as SlotBound, and the condition is scheduled at
// the earliest depth where its operand is bound.
func TestPlanCompileShapes(t *testing.T) {
	prog := parser.MustParse(`
@output("P").
P(X) :- Own(X, X, S), Edge(X, Y), S > 0.5.
`)
	r := prog.Rules[0]
	p, err := compilePlan(r, term.NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	if p.nslots != 3 || p.slotNames[0] != "X" || p.slotNames[1] != "S" || p.slotNames[2] != "Y" {
		t.Fatalf("slots = %d %v, want [X S Y]", p.nslots, p.slotNames)
	}
	op := p.orders[0]
	wantOps := []database.SlotOpKind{database.SlotWrite, database.SlotSame, database.SlotWrite}
	for pos, want := range wantOps {
		if got := op.atoms[0].Ops[pos].Kind; got != want {
			t.Errorf("atom 0 pos %d kind = %v, want %v", pos, got, want)
		}
	}
	if op.atoms[0].Ops[1].Slot != 0 {
		t.Errorf("repeated variable checks slot %d, want 0", op.atoms[0].Ops[1].Slot)
	}
	if got := op.atoms[1].Ops[0].Kind; got != database.SlotBound {
		t.Errorf("atom 1 pos 0 kind = %v, want SlotBound", got)
	}
	if len(op.steps[0]) != 1 || op.steps[0][0].cond == nil {
		t.Errorf("condition not pushed down to depth 0: steps = %v", op.steps)
	}
	if len(op.steps[1]) != 0 {
		t.Errorf("unexpected steps at depth 1: %v", op.steps[1])
	}
	// The reverse pivot order binds X at depth 0 via Edge, so both X
	// positions of Own become SlotBound there.
	op1 := p.orders[1]
	if op1.order[0] != 1 {
		t.Fatalf("pivot order = %v", op1.order)
	}
	for pos := 0; pos <= 1; pos++ {
		if got := op1.atoms[1].Ops[pos].Kind; got != database.SlotBound {
			t.Errorf("pivot 1: Own pos %d kind = %v, want SlotBound", pos, got)
		}
	}
}

// fuzzCutover stands in for batchMinExtent in FuzzPlanDifferential's
// automatic run: fuzz inputs are a few dozen facts at most, so the engine's
// own choice is exercised on both sides of a cut-over scaled to them.
var fuzzCutover = tuned(func(tn *tuning) { tn.batchMinExtent = 8 })

// fuzzBelowCutoverSrc and fuzzAboveCutoverSrc sit one fact either side of
// fuzzCutover: 7 Own facts in the first, 8 in the second.
const (
	fuzzBelowCutoverSrc = `
@output("Control").
@label("c1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("c2") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), S > 0.5.
Own("A", "B", 0.6). Own("B", "C", 0.7). Own("C", "D", 0.8). Own("D", "E", 0.2).
Own("E", "F", 0.9). Own("F", "G", 0.55). Own("A", "G", 0.1).
`
	fuzzAboveCutoverSrc = fuzzBelowCutoverSrc + `Own("G", "H", 0.75).
`
)

// FuzzPlanDifferential fuzzes whole programs through the reference
// interpreter, the engine's own strategy choice, and every forced strategy
// of the compiled executors — frame only, and the batch executor pinned to
// leapfrog merges, to per-tuple probes and to per-pivot frame fallbacks:
// any parseable, valid program
// either fails on every engine or produces a byte-identical result. (Per
// the documented pushdown caveat, runtime evaluation errors may surface on
// different homomorphisms, so inputs where either baseline errors are
// skipped rather than compared.)
func FuzzPlanDifferential(f *testing.F) {
	f.Add(stressSimpleSrc)
	f.Add(irishBankSrc)
	f.Add(twoChannelSrc)
	f.Add(eligibleSrc)
	f.Add(planKitchenSrc)
	f.Add(fuzzBelowCutoverSrc)
	f.Add(fuzzAboveCutoverSrc)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			t.Skip("oversized input")
		}
		prog, err := parser.Parse(src)
		if err != nil {
			t.Skip()
		}
		bound := Options{MaxRounds: 50, MaxFacts: 2000}
		legacy, lerr := runTuned(legacyRef, prog, bound)
		frame, ferr := runTuned(frameOnly, prog, bound)
		if lerr != nil || ferr != nil {
			t.Skip()
		}
		diffResults(t, "fuzz", legacy, frame)
		variants := append([]struct {
			name string
			tn   tuning
		}{{"frame", frameOnly}, {"auto", fuzzCutover}}, batchTunings...)
		for _, v := range variants {
			got, err := runTuned(v.tn, prog, bound)
			if err != nil {
				t.Fatalf("frame executor succeeded but %s failed: %v", v.name, err)
			}
			diffResults(t, "fuzz-"+v.name, legacy, got)
		}
	})
}
