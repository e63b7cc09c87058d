// Command explain answers explanation queries: it runs the reasoning task,
// extracts the proof of the queried fact, maps the chase steps to
// explanation templates (Section 4.3 of the paper) and prints the resulting
// natural-language explanation.
//
// Usage:
//
//	explain -app stress-simple -query 'Default("C")'
//	explain -app company-control -query 'Control("B", "D")' -paths
//	explain -app stress-test -all
//	explain -program rules.vada -glossary g.txt -facts data.vada -query 'Ans("x")'
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/cmdutil"
	"repro/internal/core"
	"repro/internal/enhancer"
	"repro/internal/parser"
	"repro/internal/privacy"
)

func main() {
	var (
		appName  = flag.String("app", "", "bundled application name")
		progPath = flag.String("program", "", "path to a Vadalog program file")
		glosPath = flag.String("glossary", "", "path to a domain glossary file")
		factPath = flag.String("facts", "", "path to an additional facts file")
		noScen   = flag.Bool("no-scenario", false, "with -app: do not load the bundled scenario facts")
		query    = flag.String("query", "", `explanation query, e.g. 'Default("C")'`)
		all      = flag.Bool("all", false, "explain every derived answer")
		det      = flag.Bool("deterministic", false, "print the unenhanced template text")
		proof    = flag.Bool("proof", false, "also print the deterministic step-by-step proof verbalization")
		paths    = flag.Bool("paths", false, "also print the reasoning paths composed")
		anon     = flag.Bool("anonymize", false, "pseudonymize entity names in the explanation")
		timeout  = flag.Duration("timeout", 0, "abort reasoning after this long (0 = no deadline); Ctrl-C always cancels cleanly")
	)
	flag.Parse()

	pipe, extra, err := buildPipeline(*appName, *progPath, *glosPath, *factPath, *noScen)
	if err != nil {
		fatal(err)
	}
	ctx, stop := cmdutil.SignalContext(*timeout)
	defer stop()
	res, err := pipe.ReasonContext(ctx, extra...)
	if err != nil {
		fatal(err)
	}

	var exps []*core.Explanation
	switch {
	case *all:
		exps, err = pipe.ExplainAll(res)
	case *query != "":
		var e *core.Explanation
		e, err = pipe.ExplainQuery(res, *query)
		exps = []*core.Explanation{e}
	default:
		err = fmt.Errorf("one of -query or -all is required")
	}
	if err != nil {
		fatal(err)
	}

	for i, e := range exps {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== %s ==\n", e.Fact)
		if *paths {
			fmt.Printf("reasoning paths: %v (proof: %d chase steps)\n", e.PathIDs(), e.Proof.Size())
		}
		text := e.Text
		if *det {
			text = e.Deterministic
		}
		if *anon {
			pseudo := privacy.New()
			anonText, err := privacy.AnonymizeExplanation(e, pseudo)
			if err != nil {
				fatal(err)
			}
			text = anonText
		}
		fmt.Println(text)
		if *proof {
			text, err := pipe.VerbalizeProof(e.Proof)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("\nstep-by-step proof:\n%s\n", text)
		}
		if err := e.Verify(); err != nil {
			fatal(fmt.Errorf("completeness check failed: %w", err))
		}
	}
}

func buildPipeline(appName, progPath, glosPath, factPath string, noScenario bool) (*core.Pipeline, []ast.Atom, error) {
	cfg := core.Config{Enhancer: &enhancer.Fluent{Variants: 2, Seed: 1}}
	var pipe *core.Pipeline
	var extra []ast.Atom
	switch {
	case appName != "":
		app, err := apps.ByName(appName)
		if err != nil {
			return nil, nil, err
		}
		pipe, err = app.Pipeline(cfg)
		if err != nil {
			return nil, nil, err
		}
		if !noScenario {
			extra = app.Scenario()
		}
	case progPath != "" && glosPath != "":
		prog, err := os.ReadFile(progPath)
		if err != nil {
			return nil, nil, err
		}
		glos, err := os.ReadFile(glosPath)
		if err != nil {
			return nil, nil, err
		}
		pipe, err = core.NewPipelineFromSource(string(prog), string(glos), cfg)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("either -app, or both -program and -glossary, are required")
	}
	if factPath != "" {
		src, err := os.ReadFile(factPath)
		if err != nil {
			return nil, nil, err
		}
		factProg, err := parser.Parse(string(src))
		if err != nil {
			return nil, nil, err
		}
		extra = append(extra, factProg.Facts...)
	}
	return pipe, extra, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "explain:", err)
	os.Exit(1)
}
