package repro

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (see the per-experiment index in DESIGN.md), plus
// micro-benchmarks for the individual pipeline stages. Regenerate the full
// tables with `go run ./cmd/bench -fig all`; run the benchmarks with
//
//	go test -bench=. -benchmem
//
// The Fig17/Fig18 benchmarks use reduced sample counts per iteration to
// keep benchmark wall time reasonable; the cmd/bench tool runs the paper's
// full sample sizes (10 and 15 proofs per length).

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/enhancer"
	"repro/internal/figures"
	"repro/internal/glossary"
	"repro/internal/llm"
	"repro/internal/parser"
	"repro/internal/paths"
	"repro/internal/synth"
	"repro/internal/template"
)

// BenchmarkFig9DependencyGraphs builds the dependency graphs of every
// bundled application (Figures 3 and 9).
func BenchmarkFig9DependencyGraphs(b *testing.B) {
	var progs []*ast.Program
	for _, app := range apps.All() {
		progs = append(progs, app.Program())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			g := depgraph.New(p)
			if g.Leaf() == "" {
				b.Fatal("no leaf")
			}
		}
	}
}

// BenchmarkFig4Fig5ReasoningPaths runs the structural analysis of the
// simplified stress test (Figures 4 and 5).
func BenchmarkFig4Fig5ReasoningPaths(b *testing.B) {
	app, _ := apps.ByName(apps.NameStressSimple)
	g := depgraph.New(app.Program())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := paths.Analyze(g)
		if len(a.Simple) == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkFig10PathTables enumerates the reasoning paths of all bundled
// applications (Figure 10).
func BenchmarkFig10PathTables(b *testing.B) {
	var graphs []*depgraph.Graph
	for _, app := range apps.All() {
		graphs = append(graphs, depgraph.New(app.Program()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			if a := paths.Analyze(g); len(a.Simple) == 0 {
				b.Fatal("no paths")
			}
		}
	}
}

// BenchmarkFig6Templates generates and enhances the templates of the
// simplified stress test (Figure 6).
func BenchmarkFig6Templates(b *testing.B) {
	app, _ := apps.ByName(apps.NameStressSimple)
	a := paths.Analyze(depgraph.New(app.Program()))
	g := app.Glossary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := template.Generate(a, g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := enhancer.EnhanceStore(store, &enhancer.Fluent{Variants: 2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Glossary parses the domain glossaries of all applications
// (Figures 7 and 11).
func BenchmarkFig11Glossary(b *testing.B) {
	var sources []string
	for _, app := range apps.All() {
		sources = append(sources, app.GlossarySource)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range sources {
			g, err := glossary.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			if len(g.Predicates()) == 0 {
				b.Fatal("empty glossary")
			}
		}
	}
}

// BenchmarkEx48Explanation runs the full Example 4.7/4.8 pipeline: chase +
// proof extraction + template mapping + instantiation.
func BenchmarkEx48Explanation(b *testing.B) {
	app, _ := apps.ByName(apps.NameStressSimple)
	pipe, err := app.Pipeline(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	scenario := app.Scenario()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipe.Reason(scenario...)
		if err != nil {
			b.Fatal(err)
		}
		e, err := pipe.ExplainQuery(res, `Default("C")`)
		if err != nil {
			b.Fatal(err)
		}
		if len(e.Text) == 0 {
			b.Fatal("empty explanation")
		}
	}
}

// BenchmarkFig13DerivedKnowledge runs the representative scenarios of the
// company control and stress test applications (Figures 12-13).
func BenchmarkFig13DerivedKnowledge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := figures.Fig13DerivedKnowledge()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig14Comprehension simulates the comprehension user study
// (Figure 14: 24 participants, 5 cases).
func BenchmarkFig14Comprehension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := figures.Fig14Comprehension(42, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15ExampleTexts produces the four explanation texts of the
// Irish Bank example (Figure 15).
func BenchmarkFig15ExampleTexts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Fig15ExampleTexts(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16ExpertStudy simulates the expert study (Figure 16: 14
// experts, 4 scenarios, 3 methods, Wilcoxon tests).
func BenchmarkFig16ExpertStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := figures.Fig16ExpertStudy(42, 14); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17Omissions runs a reduced omission sweep (Figure 17; 3
// proofs per length instead of the paper's 10).
func BenchmarkFig17Omissions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := figures.Fig17Omissions(42, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig18Performance runs a reduced performance sweep (Figure 18; 2
// proofs per length instead of the paper's 15).
func BenchmarkFig18Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := figures.Fig18Performance(42, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Micro-benchmarks for the individual pipeline stages. ----

// BenchmarkChaseControlChain measures the chase on a 50-hop control chain.
func BenchmarkChaseControlChain(b *testing.B) {
	app, _ := apps.ByName(apps.NameCompanyControl)
	prog := app.Program()
	sc := synth.ControlChain(50, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chase.Run(prog, chase.Options{ExtraFacts: sc.Facts})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers()) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkChaseRandomControl measures the chase on a fifteen-thousand-edge
// random ownership graph (kg_batch's shape in the benchmark of record), the
// size at which the engine evaluates its rules on the batch executor.
func BenchmarkChaseRandomControl(b *testing.B) {
	app, _ := apps.ByName(apps.NameCompanyControl)
	prog := app.Program()
	sc := synth.RandomControl(6, 2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chase.Run(prog, chase.Options{ExtraFacts: sc.Facts})
		if err != nil {
			b.Fatal(err)
		}
		if res.JoinStats.BatchJoins == 0 {
			b.Fatalf("batch executor never ran: %+v", res.JoinStats)
		}
	}
}

// BenchmarkChaseStressCascade measures the chase on a 21-step cascade.
func BenchmarkChaseStressCascade(b *testing.B) {
	app, _ := apps.ByName(apps.NameStressTest)
	prog := app.Program()
	sc := synth.StressCascade(21, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chase.Run(prog, chase.Options{ExtraFacts: sc.Facts}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChaseWideOwnership runs the chase over a wide random ownership
// graph: each semi-naive round carries a broad frontier.
func BenchmarkChaseWideOwnership(b *testing.B) {
	app, _ := apps.ByName(apps.NameCompanyControl)
	prog := app.Program()
	sc := synth.RandomControl(12, 24, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := chase.Run(prog, chase.Options{ExtraFacts: sc.Facts})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers()) == 0 {
			b.Fatal("no answers")
		}
	}
}

// BenchmarkExplainOnly isolates explanation generation (proof extraction,
// mapping, instantiation) from reasoning, on a 21-step proof.
func BenchmarkExplainOnly(b *testing.B) {
	app, _ := apps.ByName(apps.NameCompanyControl)
	pipe, err := app.Pipeline(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	sc := synth.ControlChain(21, 1)
	res, err := pipe.Reason(sc.Facts...)
	if err != nil {
		b.Fatal(err)
	}
	pattern, err := parser.ParseAtom(sc.Query)
	if err != nil {
		b.Fatal(err)
	}
	id, err := res.LookupDerived(pattern)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.ExplainFact(res, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerbalizeProof measures the deterministic proof verbalization
// used as the LLM baseline input.
func BenchmarkVerbalizeProof(b *testing.B) {
	app, _ := apps.ByName(apps.NameCompanyControl)
	pipe, err := app.Pipeline(core.Config{SkipEnhancement: true})
	if err != nil {
		b.Fatal(err)
	}
	sc := synth.ControlChain(21, 1)
	res, err := pipe.Reason(sc.Facts...)
	if err != nil {
		b.Fatal(err)
	}
	pattern, _ := parser.ParseAtom(sc.Query)
	id, err := res.LookupDerived(pattern)
	if err != nil {
		b.Fatal(err)
	}
	proof, err := res.ExtractProof(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.VerbalizeProof(proof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedLLM measures the baseline generator on a long proof.
func BenchmarkSimulatedLLM(b *testing.B) {
	app, _ := apps.ByName(apps.NameCompanyControl)
	pipe, err := app.Pipeline(core.Config{SkipEnhancement: true})
	if err != nil {
		b.Fatal(err)
	}
	sc := synth.ControlChain(21, 1)
	res, err := pipe.Reason(sc.Facts...)
	if err != nil {
		b.Fatal(err)
	}
	pattern, _ := parser.ParseAtom(sc.Query)
	id, _ := res.LookupDerived(pattern)
	proof, _ := res.ExtractProof(id)
	text, err := pipe.VerbalizeProof(proof)
	if err != nil {
		b.Fatal(err)
	}
	g := &llm.Simulated{Mode: llm.Summarize, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := g.Generate(text); len(out) == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkParser measures parsing of a ~400-clause program.
func BenchmarkParser(b *testing.B) {
	app, _ := apps.ByName(apps.NameCompanyControl)
	src := app.ProgramSource
	sc := synth.ControlChain(200, 1)
	for _, f := range sc.Facts {
		src += f.String() + ".\n"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
