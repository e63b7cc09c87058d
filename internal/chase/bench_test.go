package chase

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/term"
)

// benchChainFacts builds a linear ownership chain of the given length with
// branching noise: c0 →(0.6) c1 →(0.6) … plus a 0.1 side edge per hop. The
// company-control program then derives control transitively along the spine,
// exercising recursive joins and per-hop aggregation.
func benchChainFacts(n int) []ast.Atom {
	var facts []ast.Atom
	name := func(i int) term.Term { return term.Str(fmt.Sprintf("c%d", i)) }
	for i := 0; i < n; i++ {
		facts = append(facts, ast.NewAtom("Company", name(i)))
		if i+1 < n {
			facts = append(facts, ast.NewAtom("Own", name(i), name(i+1), term.Float(0.6)))
		}
		if i+2 < n {
			facts = append(facts, ast.NewAtom("Own", name(i), name(i+2), term.Float(0.1)))
		}
	}
	return facts
}

// BenchmarkExtractProof measures proof extraction for every answer of a
// 60-hop recursive control chase — the workload of an explain-all request.
// Cold walks the chase graph back from each answer independently (the
// pre-memo behavior and the fallback for oversized stores); Warm serves
// the same proofs from the proof-closure memo after a single build.
func BenchmarkExtractProof(b *testing.B) {
	prog, err := parser.Parse(`
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("s2") Control(X, X) :- Company(X).
@label("s3") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.
`)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(prog, Options{ExtraFacts: benchChainFacts(60)})
	if err != nil {
		b.Fatal(err)
	}
	answers := res.Answers()
	if len(answers) == 0 {
		b.Fatal("no answers")
	}
	b.Run("Cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, id := range answers {
				if p := res.extractProofWalk(id); p.Size() == 0 {
					b.Fatal("empty proof")
				}
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		b.ReportAllocs()
		if _, err := res.ExtractProof(answers[0]); err != nil { // build the memo
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, id := range answers {
				p, err := res.ExtractProof(id)
				if err != nil {
					b.Fatal(err)
				}
				if p.Size() == 0 {
					b.Fatal("empty proof")
				}
			}
		}
	})
}

// BenchmarkJoinControlChain runs the full recursive company-control chase
// over a 50-hop ownership chain on the engine as shipped (Compiled) and on
// its two references: the interpreter that joins the same rules with
// map-based substitutions (Legacy), and naive evaluation, which re-joins
// every rule against the whole store every round (Naive) — the semi-naive
// ablation DESIGN.md calls out.
func BenchmarkJoinControlChain(b *testing.B) {
	prog, err := parser.Parse(`
@output("Control").
@label("s1") Control(X, X) :- Company(X).
@label("s2") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.
`)
	if err != nil {
		b.Fatal(err)
	}
	facts := benchChainFacts(50)
	for _, mode := range []struct {
		name string
		tn   tuning
	}{
		{"Compiled", defaultTuning},
		{"Legacy", legacyRef},
		{"Naive", naiveRef},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := runTuned(mode.tn, prog, Options{ExtraFacts: facts})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Derived("Control")) == 0 {
					b.Fatal("no control facts derived")
				}
			}
		})
	}
}

// BenchmarkTwoHopEmission measures the vectorized emission path of the
// batch executor on a dense two-hop join. Cold derives every output fact
// (key build + keyed insert + derivation per row); warm re-runs with the
// previous outputs pre-loaded as extensional facts, so every emitted row is
// a duplicate and the path must cost one allocation-free LookupKey per row
// — allocations stay O(columns), not O(rows). ReportAllocs makes the
// contrast visible in the -benchmem columns.
func BenchmarkTwoHopEmission(b *testing.B) {
	prog, err := parser.Parse(`
@output("Risky").
@label("t1") Risky(X, Z) :- Own(X, Y, S1), Own(Y, Z, S2), S1 > 0.5, S2 > 0.5.
`)
	if err != nil {
		b.Fatal(err)
	}
	facts := denseOwnership(8, 40, 8, 1)
	res, err := runTuned(batchOnly, prog, Options{ExtraFacts: facts})
	if err != nil {
		b.Fatal(err)
	}
	derived := 0
	warmFacts := append([]ast.Atom{}, facts...)
	for _, f := range res.Store.Facts() {
		if !f.Extensional {
			warmFacts = append(warmFacts, f.Atom)
			derived++
		}
	}
	if derived == 0 {
		b.Fatal("two-hop derived nothing")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := runTuned(batchOnly, prog, Options{ExtraFacts: facts}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := runTuned(batchOnly, prog, Options{ExtraFacts: warmFacts}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
