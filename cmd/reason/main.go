// Command reason runs a Vadalog reasoning task until fixpoint and prints
// the derived knowledge, optionally with the full chase graph.
//
// Usage:
//
//	reason -app company-control                 # bundled app + its scenario
//	reason -program rules.vada -facts data.vada # user-provided files
//	reason -app stress-test -graph              # also dump the chase graph
//	reason -app stress-test -dot > chase.dot    # Graphviz output
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/cmdutil"
	"repro/internal/parser"
)

func main() {
	var (
		appName  = flag.String("app", "", "bundled application: stress-simple, company-control, stress-test, close-link")
		progPath = flag.String("program", "", "path to a Vadalog program file")
		factPath = flag.String("facts", "", "path to an additional facts file")
		noScen   = flag.Bool("no-scenario", false, "with -app: do not load the bundled scenario facts")
		graph    = flag.Bool("graph", false, "print the chase graph")
		dot      = flag.Bool("dot", false, "print the chase graph in Graphviz DOT syntax")
		timeout  = flag.Duration("timeout", 0, "abort the chase after this long (0 = no deadline); Ctrl-C always cancels cleanly")
	)
	flag.Parse()

	prog, extra, err := loadProgram(*appName, *progPath, *factPath, *noScen)
	if err != nil {
		fatal(err)
	}
	ctx, stop := cmdutil.SignalContext(*timeout)
	defer stop()
	res, err := chase.RunContext(ctx, prog, chase.Options{ExtraFacts: extra})
	if err != nil {
		fatal(err)
	}

	switch {
	case *dot:
		fmt.Print(res.DOT())
	case *graph:
		fmt.Print(res.Graph())
	default:
		fmt.Printf("fixpoint after %d rounds, %d facts (%d derived)\n",
			res.Rounds, res.Store.Len(), len(res.Steps))
		js := res.JoinStats
		fmt.Printf("joins: %d frame, %d batch (%d leapfrog, %d probe, %d scan passes, %d frame fallbacks); columnar index: %d rebuilds, %d merges, %d tail refreshes\n",
			js.FrameJoins, js.BatchJoins, js.TriejoinPasses, js.ProbePasses, js.ScanPasses, js.FrameFallbacks,
			js.Rebuilds, js.Merges, js.TailRefreshes)
		fmt.Printf("answers for %s:\n", prog.Output)
		for _, id := range res.Answers() {
			fmt.Printf("  %s\n", res.Store.Get(id))
		}
	}
}

// loadProgram resolves the program and extra facts from the flags.
func loadProgram(appName, progPath, factPath string, noScenario bool) (*ast.Program, []ast.Atom, error) {
	var prog *ast.Program
	var extra []ast.Atom
	switch {
	case appName != "" && progPath != "":
		return nil, nil, fmt.Errorf("use either -app or -program, not both")
	case appName != "":
		app, err := apps.ByName(appName)
		if err != nil {
			return nil, nil, err
		}
		prog = app.Program()
		if !noScenario {
			extra = app.Scenario()
		}
	case progPath != "":
		src, err := os.ReadFile(progPath)
		if err != nil {
			return nil, nil, err
		}
		prog, err = parser.Parse(string(src))
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("one of -app or -program is required")
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
	return prog, extra, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reason:", err)
	os.Exit(1)
}
