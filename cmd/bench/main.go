// Command bench regenerates the paper's tables and figures (see DESIGN.md
// for the experiment index).
//
// Usage:
//
//	bench -fig all
//	bench -fig fig17 -proofs 10 -seed 42
//	bench -fig fig16 -experts 14
//	bench -fig all -json timings # also write per-figure wall times to BENCH_timings.json
//	bench -fig serving    # cold vs warm explain-all; writes BENCH_serving.json
//	bench -fig incremental # single-fact update vs full re-chase; writes BENCH_incremental.json
//	bench -fig columnar   # join throughput and strategies on a million-fact EKG; writes BENCH_columnar.json
//	bench -fig write      # serialized vs group-commit write throughput; writes BENCH_write.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cmdutil"
	"repro/internal/figures"
)

// envelope records when, from which commit and on what toolchain and cores
// a BENCH_*.json snapshot was produced, so two committed numbers are never
// compared without knowing whether the same setup produced them. Every
// snapshot type embeds it.
type envelope struct {
	Generated  string `json:"generated"`
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Cores      int    `json:"cores"`
}

func newEnvelope() envelope {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		// Uncommitted changes to tracked files mean the numbers are not
		// that commit's.
		if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
			commit += "+dirty"
		}
	}
	return envelope{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Commit:     commit,
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Cores:      runtime.NumCPU(),
	}
}

// writeSnapshot writes one machine-readable record to BENCH_<label>.json.
func writeSnapshot(label string, snap any) error {
	path := "BENCH_" + label + ".json"
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s snapshot: %w", label, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	return nil
}

// benchSnapshot is the per-figure wall-time record written by -json.
type benchSnapshot struct {
	envelope
	Label   string        `json:"label"`
	Figures []figureTimes `json:"figures"`
}

type figureTimes struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// servingSnapshot is the cold/warm serving-latency record `bench -fig
// serving` writes to BENCH_serving.json.
type servingSnapshot struct {
	envelope
	Workloads []figures.ServingPoint `json:"workloads"`
}

// incrementalSnapshot is the update-vs-re-chase record `bench -fig
// incremental` writes to BENCH_incremental.json.
type incrementalSnapshot struct {
	envelope
	Workloads []figures.IncrementalPoint `json:"workloads"`
}

// columnarSnapshot is the join-throughput record `bench -fig columnar`
// writes to BENCH_columnar.json.
type columnarSnapshot struct {
	envelope
	Workloads []figures.ColumnarPoint `json:"workloads"`
}

// writePathSnapshot is the write-throughput record `bench -fig write` writes
// to BENCH_write.json.
type writePathSnapshot struct {
	envelope
	Workloads []figures.WritePoint `json:"workloads"`
	// CrossSessions holds the before/after rows of cross-session fsync
	// batching: independent per-session flushing vs the shared SyncBatcher.
	CrossSessions []figures.CrossSyncPoint `json:"crossSessions"`
}

func main() {
	var (
		fig          = flag.String("fig", "all", "figure id (fig3, fig10, fig6, fig7, fig8, ex48, fig13, fig14, fig15, fig16, fig17, fig18, serving, incremental, columnar, write) or 'all'")
		seed         = flag.Int64("seed", 42, "experiment seed")
		proofs       = flag.Int("proofs", 10, "proofs per length (fig17: paper uses 10; fig18: 15)")
		participants = flag.Int("participants", 24, "comprehension-study participants (fig14)")
		experts      = flag.Int("experts", 14, "expert-study raters (fig16)")
		jsonLabel    = flag.String("json", "", "also write per-figure wall times to BENCH_<label>.json")
		timeout      = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline); Ctrl-C always interrupts cleanly")
	)
	flag.Parse()
	ctx, stopSignals := cmdutil.SignalContext(*timeout)
	defer stopSignals()

	runners := map[string]func() (string, error){
		"fig3": func() (string, error) { return figures.Fig3Fig9DependencyGraphs() },
		"fig10": func() (string, error) {
			return figures.Fig4Fig5Fig10ReasoningPaths()
		},
		"fig6": figures.Fig6Templates,
		"fig7": func() (string, error) { return figures.Fig7Fig11Glossaries(), nil },
		"fig8": figures.Fig8ChaseGraph,
		"ex48": figures.Ex48Explanation,
		"fig13": func() (string, error) {
			return figures.Fig13DerivedKnowledge()
		},
		"fig14": func() (string, error) {
			out, _, err := figures.Fig14Comprehension(*seed, *participants)
			return out, err
		},
		"fig15": func() (string, error) { return figures.Fig15ExampleTexts(*seed) },
		"fig16": func() (string, error) {
			out, _, err := figures.Fig16ExpertStudy(*seed, *experts)
			return out, err
		},
		"fig17": func() (string, error) {
			out, points, err := figures.Fig17Omissions(*seed, *proofs)
			if err != nil {
				return "", err
			}
			return out + "\n" + figures.OmissionBoxplots(points, 56), nil
		},
		"fig18": func() (string, error) {
			out, points, err := figures.Fig18Performance(*seed, *proofs)
			if err != nil {
				return "", err
			}
			return out + "\n" + figures.TimingBoxplots(points, 56), nil
		},
		"serving": func() (string, error) {
			out, points, err := figures.ServingLatency()
			if err != nil {
				return "", err
			}
			return out, writeSnapshot("serving", servingSnapshot{newEnvelope(), points})
		},
		"incremental": func() (string, error) {
			out, points, err := figures.IncrementalLatency()
			if err != nil {
				return "", err
			}
			return out, writeSnapshot("incremental", incrementalSnapshot{newEnvelope(), points})
		},
		"columnar": func() (string, error) {
			out, points, err := figures.ColumnarThroughput()
			if err != nil {
				return "", err
			}
			return out, writeSnapshot("columnar", columnarSnapshot{newEnvelope(), points})
		},
		"write": func() (string, error) {
			out, points, cross, err := figures.WriteThroughput()
			if err != nil {
				return "", err
			}
			return out, writeSnapshot("write", writePathSnapshot{newEnvelope(), points, cross})
		},
	}
	// Aliases: the paper's figure numbers group several renderings.
	for alias, target := range map[string]string{
		"fig4": "fig10", "fig5": "fig10", "fig9": "fig3", "fig11": "fig7", "fig12": "fig13",
	} {
		runners[alias] = runners[target]
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = []string{"fig3", "fig10", "fig6", "fig7", "fig8", "ex48", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18"}
	}
	snap := benchSnapshot{envelope: newEnvelope(), Label: *jsonLabel}
	for _, id := range ids {
		run, ok := runners[id]
		if !ok {
			var known []string
			for k := range runners {
				known = append(known, k)
			}
			sort.Strings(known)
			fmt.Fprintf(os.Stderr, "bench: unknown figure %q (known: %s)\n", id, strings.Join(known, ", "))
			os.Exit(1)
		}
		fmt.Printf("######## %s ########\n", id)
		start := time.Now()
		var out string
		err := cmdutil.RunInterruptible(ctx, func() error {
			var err error
			out, err = run()
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		snap.Figures = append(snap.Figures, figureTimes{ID: id, Seconds: time.Since(start).Seconds()})
		fmt.Println(out)
	}
	if *jsonLabel != "" {
		if err := writeSnapshot(*jsonLabel, snap); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}
