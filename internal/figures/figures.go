// Package figures regenerates every table and figure of the paper's
// evaluation from the implemented system: the structural artifacts (Figures
// 3-11), the representative scenario (Figures 12-13, Example 4.8), the user
// studies (Figures 14-16), the LLM-omission experiment (Figure 17) and the
// performance experiment (Figure 18). Each Fig* function returns a plain
// text rendering; the experiment functions also expose their raw data so
// the benchmark harness can assert the paper's trends.
package figures

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/parser"
	"repro/internal/stats"
	"repro/internal/study"
	"repro/internal/synth"
)

// pipelineFor compiles a bundled application.
func pipelineFor(name string) (*apps.App, *core.Pipeline, error) {
	app, err := apps.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	p, err := app.Pipeline(core.Config{})
	if err != nil {
		return nil, nil, err
	}
	return app, p, nil
}

// explainScenario runs a synthetic scenario end to end and returns the
// pipeline, result and explanation of its designated query.
func explainScenario(sc synth.Scenario, cfg core.Config) (*core.Pipeline, *chase.Result, *core.Explanation, error) {
	app, err := apps.ByName(sc.App)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := app.Pipeline(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := p.Reason(sc.Facts...)
	if err != nil {
		return nil, nil, nil, err
	}
	pattern, err := parser.ParseAtom(sc.Query)
	if err != nil {
		return nil, nil, nil, err
	}
	id, err := res.LookupDerived(pattern)
	if err != nil {
		return nil, nil, nil, err
	}
	e, err := p.ExplainFact(res, id)
	if err != nil {
		return nil, nil, nil, err
	}
	return p, res, e, nil
}

// Fig3Fig9DependencyGraphs renders the dependency graphs of the bundled
// applications: edge lists with roots, leaf and critical nodes.
func Fig3Fig9DependencyGraphs() (string, error) {
	var sb strings.Builder
	for _, app := range apps.All() {
		_, p, err := pipelineFor(app.Name)
		if err != nil {
			return "", err
		}
		g := p.Graph()
		fmt.Fprintf(&sb, "== %s ==\n", app.Title)
		fmt.Fprintf(&sb, "roots: %s\n", strings.Join(g.Roots(), ", "))
		fmt.Fprintf(&sb, "leaf: %s\n", g.Leaf())
		fmt.Fprintf(&sb, "critical: %s\n", strings.Join(g.CriticalNodes(), ", "))
		fmt.Fprintf(&sb, "cyclic: %v\n", g.Cyclic())
		sb.WriteString(g.String())
		sb.WriteString("\n\n")
	}
	return sb.String(), nil
}

// Fig4Fig5Fig10ReasoningPaths renders the reasoning-path tables of all
// applications (Figure 10, plus Figures 4-5 for the simplified stress
// test).
func Fig4Fig5Fig10ReasoningPaths() (string, error) {
	var sb strings.Builder
	for _, app := range apps.All() {
		_, p, err := pipelineFor(app.Name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "== %s ==\n%s\n", app.Title, p.Analysis().Table())
	}
	return sb.String(), nil
}

// Fig6Templates renders the deterministic and enhanced templates of the
// simplified stress test (Figure 6).
func Fig6Templates() (string, error) {
	_, p, err := pipelineFor(apps.NameStressSimple)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, tpl := range p.Templates().All() {
		fmt.Fprintf(&sb, "== %s ==\nDeterministic: %s\n", tpl.Path.ID, tpl.Text)
		for i, v := range tpl.Enhanced {
			fmt.Fprintf(&sb, "Enhanced %d:    %s\n", i+1, v)
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// Fig7Fig11Glossaries renders the domain glossaries (Figures 7 and 11).
func Fig7Fig11Glossaries() string {
	var sb strings.Builder
	for _, app := range apps.All() {
		fmt.Fprintf(&sb, "== %s ==\n%s\n", app.Title, app.Glossary().String())
	}
	return sb.String()
}

// Fig8ChaseGraph renders the chase graph of the Example 4.7 EDB and the
// spine of Default(C).
func Fig8ChaseGraph() (string, error) {
	app, p, err := pipelineFor(apps.NameStressSimple)
	if err != nil {
		return "", err
	}
	res, err := p.Reason(app.Scenario()...)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(res.Graph())
	pattern, _ := parser.ParseAtom(`Default("C")`)
	id, err := res.LookupDerived(pattern)
	if err != nil {
		return "", err
	}
	proof, err := res.ExtractProof(id)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "\nτ = {%s}\n", strings.Join(proof.RuleSequence(), ", "))
	return sb.String(), nil
}

// Ex48Explanation renders the final explanation of Example 4.8 together
// with the reasoning paths composed.
func Ex48Explanation() (string, error) {
	app, p, err := pipelineFor(apps.NameStressSimple)
	if err != nil {
		return "", err
	}
	res, err := p.Reason(app.Scenario()...)
	if err != nil {
		return "", err
	}
	e, err := p.ExplainQuery(res, `Default("C")`)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("paths: {%s}\n\n%s\n", strings.Join(e.PathIDs(), ", "), e.Text), nil
}

// Fig13DerivedKnowledge runs the representative scenario of the company
// control and stress test applications and lists the derived knowledge.
func Fig13DerivedKnowledge() (string, error) {
	var sb strings.Builder
	for _, name := range []string{apps.NameCompanyControl, apps.NameStressTest} {
		app, p, err := pipelineFor(name)
		if err != nil {
			return "", err
		}
		res, err := p.Reason(app.Scenario()...)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "== %s ==\n", app.Title)
		var lines []string
		for _, id := range res.Answers() {
			f := res.Store.Get(id)
			// Skip auto-control edges, as the paper's Figure 13 does.
			if f.Atom.Predicate == "Control" && f.Atom.Terms[0].Equal(f.Atom.Terms[1]) {
				continue
			}
			lines = append(lines, f.String())
		}
		sort.Strings(lines)
		sb.WriteString(strings.Join(lines, "\n"))
		sb.WriteString("\n\n")
	}
	return sb.String(), nil
}

// Fig14Comprehension runs the comprehension study and renders the Figure 14
// table.
func Fig14Comprehension(seed int64, participants int) (string, []study.ComprehensionResult, error) {
	rs, err := study.RunComprehension(seed, participants)
	if err != nil {
		return "", nil, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-48s %10s %10s %12s %10s %8s\n",
		"Case", "WrongEdge", "WrongValue", "WrongAggreg", "WrongChain", "Correct")
	for _, r := range rs {
		pct := func(a study.Archetype) string {
			return fmt.Sprintf("%.0f%%", 100*float64(r.ErrorsBy[a])/float64(r.Total))
		}
		fmt.Fprintf(&sb, "%-48s %10s %10s %12s %10s %7.0f%%\n",
			r.Case, pct(study.WrongEdge), pct(study.WrongValue),
			pct(study.WrongAggregation), pct(study.WrongChain), 100*r.Accuracy())
	}
	fmt.Fprintf(&sb, "overall accuracy: %.0f%% (paper: 96%%)\n", 100*study.OverallAccuracy(rs))
	return sb.String(), rs, nil
}

// Fig15ExampleTexts reproduces the Figure 15 comparison for the Irish Bank
// scenario: deterministic explanation, GPT paraphrase, GPT summary and the
// template-based text.
func Fig15ExampleTexts(seed int64) (string, error) {
	facts := `
Company("IrishBank").
Company("FondoItaliano").
Company("FrenchPLC").
Company("MadridCredit").
Own("IrishBank", "FondoItaliano", 0.83).
Own("IrishBank", "FrenchPLC", 0.54).
Own("FrenchPLC", "MadridCredit", 0.21).
Own("FondoItaliano", "MadridCredit", 0.36).
`
	factProg, err := parser.Parse(facts)
	if err != nil {
		return "", err
	}
	sc := synth.Scenario{
		App:   apps.NameCompanyControl,
		Facts: factProg.Facts,
		Query: `Control("IrishBank", "MadridCredit")`,
	}
	p, _, e, err := explainScenario(sc, core.Config{})
	if err != nil {
		return "", err
	}
	det, err := p.VerbalizeProof(e.Proof)
	if err != nil {
		return "", err
	}
	para := (&llm.Simulated{Mode: llm.Paraphrase, Seed: seed}).Generate(det)
	summ := (&llm.Simulated{Mode: llm.Summarize, Seed: seed}).Generate(det)
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Deterministic Explanation ==\n%s\n\n", det)
	fmt.Fprintf(&sb, "== GPT Paraphrasis of Deterministic Explanation ==\n%s\n\n", para)
	fmt.Fprintf(&sb, "== GPT Summary of Deterministic Explanation ==\n%s\n\n", summ)
	fmt.Fprintf(&sb, "== Template-based Approach ==\n%s\n", e.Text)
	return sb.String(), nil
}

// Fig16ExpertStudy runs the expert study and renders the Figure 16 table
// plus the Wilcoxon outcomes.
func Fig16ExpertStudy(seed int64, experts int) (string, *study.ExpertResult, error) {
	r, err := study.RunExpert(seed, experts)
	if err != nil {
		return "", nil, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %12s %10s %10s\n", "", "Paraphrasis", "Summary", "Templates")
	fmt.Fprintf(&sb, "%-12s %12.2f %10.2f %10.2f\n", "Mean",
		r.Mean[study.MethodParaphrase], r.Mean[study.MethodSummary], r.Mean[study.MethodTemplates])
	fmt.Fprintf(&sb, "%-12s %12.2f %10.2f %10.2f\n", "Std. Dev.",
		r.StdDev[study.MethodParaphrase], r.StdDev[study.MethodSummary], r.StdDev[study.MethodTemplates])
	fmt.Fprintf(&sb, "Wilcoxon vs templates: p1 = %.4f (paraphrasis), p2 = %.4f (summary)\n",
		r.PParaphrase, r.PSummary)
	fmt.Fprintf(&sb, "significant difference at 5%%: %v (paper: none; p1=0.5851, p2=0.404)\n", r.Significant())
	return sb.String(), r, nil
}

// OmissionPoint is one boxplot of Figure 17: the omission-ratio
// distribution of one (application, prompt, proof length) cell.
type OmissionPoint struct {
	App     string
	Mode    llm.Mode
	Steps   int
	Ratios  []float64
	Summary stats.FiveNum
}

// Fig17Omissions runs the omission experiment: for each application and
// prompt, sample `proofs` distinct proofs per length and measure the
// information the simulated LLM output loses. The template approach is
// also measured and must stay at zero.
func Fig17Omissions(seed int64, proofs int) (string, []OmissionPoint, error) {
	sweeps := []struct {
		app      string
		lengths  []int
		scenario func(steps int, seed int64) synth.Scenario
	}{
		{apps.NameCompanyControl, []int{3, 6, 9, 12, 15, 18, 21}, synth.ControlChain},
		{apps.NameStressTest, []int{1, 3, 5, 7, 9}, synth.StressCascade},
	}
	var points []OmissionPoint
	var sb strings.Builder
	for _, sweep := range sweeps {
		app, _ := apps.ByName(sweep.app)
		fmt.Fprintf(&sb, "== %s ==\n", app.Title)
		fmt.Fprintf(&sb, "%6s  %-12s %8s %8s %8s %8s %8s %10s\n",
			"steps", "prompt", "min", "q1", "median", "q3", "max", "templates")
		for _, steps := range sweep.lengths {
			templateRatios := make([]float64, 0, proofs)
			byMode := map[llm.Mode][]float64{}
			for s := 0; s < proofs; s++ {
				sc := sweep.scenario(steps, seed+int64(s)+int64(steps)*1000)
				p, _, e, err := explainScenario(sc, core.Config{SkipEnhancement: true})
				if err != nil {
					return "", nil, err
				}
				det, err := p.VerbalizeProof(e.Proof)
				if err != nil {
					return "", nil, err
				}
				consts := e.Proof.Constants()
				for _, mode := range []llm.Mode{llm.Paraphrase, llm.Summarize} {
					g := &llm.Simulated{Mode: mode, Seed: seed + int64(s)}
					byMode[mode] = append(byMode[mode], llm.OmissionRatio(g.Generate(det), consts))
				}
				templateRatios = append(templateRatios, llm.OmissionRatio(e.Text, consts))
			}
			for _, mode := range []llm.Mode{llm.Paraphrase, llm.Summarize} {
				pt := OmissionPoint{
					App: sweep.app, Mode: mode, Steps: steps,
					Ratios:  byMode[mode],
					Summary: stats.Summary(byMode[mode]),
				}
				points = append(points, pt)
				fmt.Fprintf(&sb, "%6d  %-12s %8.3f %8.3f %8.3f %8.3f %8.3f %10.3f\n",
					steps, mode, pt.Summary.Min, pt.Summary.Q1, pt.Summary.Median,
					pt.Summary.Q3, pt.Summary.Max, stats.Mean(templateRatios))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String(), points, nil
}

// TimingPoint is one boxplot of Figure 18: the running-time distribution of
// explanation generation at one proof length.
type TimingPoint struct {
	App     string
	Steps   int
	Millis  []float64
	Summary stats.FiveNum
}

// Fig18Performance measures the time to generate an explanation (proof
// extraction, template selection and instantiation — reasoning excluded, as
// in the paper) for proofs of increasing length, `proofs` distinct proofs
// per length.
func Fig18Performance(seed int64, proofs int) (string, []TimingPoint, error) {
	sweeps := []struct {
		app      string
		lengths  []int
		scenario func(steps int, seed int64) synth.Scenario
	}{
		{apps.NameCompanyControl, []int{1, 3, 5, 7, 9, 11, 13, 16, 18, 21}, synth.ControlChain},
		{apps.NameStressTest, []int{1, 4, 7, 10, 13, 16, 19, 22}, synth.StressCascade},
	}
	var points []TimingPoint
	var sb strings.Builder
	for _, sweep := range sweeps {
		app, err := apps.ByName(sweep.app)
		if err != nil {
			return "", nil, err
		}
		pipe, err := app.Pipeline(core.Config{})
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(&sb, "== %s ==\n", app.Title)
		fmt.Fprintf(&sb, "%6s %10s %10s %10s\n", "steps", "min ms", "avg ms", "max ms")
		for _, steps := range sweep.lengths {
			var millis []float64
			for s := 0; s < proofs; s++ {
				sc := sweep.scenario(steps, seed+int64(s)+int64(steps)*500)
				res, err := pipe.Reason(sc.Facts...)
				if err != nil {
					return "", nil, err
				}
				pattern, err := parser.ParseAtom(sc.Query)
				if err != nil {
					return "", nil, err
				}
				id, err := res.LookupDerived(pattern)
				if err != nil {
					return "", nil, err
				}
				start := time.Now()
				if _, err := pipe.ExplainFact(res, id); err != nil {
					return "", nil, err
				}
				millis = append(millis, float64(time.Since(start).Nanoseconds())/1e6)
			}
			pt := TimingPoint{App: sweep.app, Steps: steps, Millis: millis, Summary: stats.Summary(millis)}
			points = append(points, pt)
			fmt.Fprintf(&sb, "%6d %10.3f %10.3f %10.3f\n",
				steps, pt.Summary.Min, stats.Mean(millis), pt.Summary.Max)
		}
		sb.WriteByte('\n')
	}
	return sb.String(), points, nil
}
