package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/term"
)

// kgInstances is how many graphs one set-up generates; the measured loop
// walks them in order and starts over if time remains (the default pipeline
// caches nothing, so a repeat costs what the first pass cost).
const kgInstances = 12

// Each cycle times kgReads renderings of the answer list and an add-and-
// retract pair for each of kgEdges what-if edges: both are milliseconds, so
// repeating them costs little. A cycle contributes one sample of each, the
// mean over its repetitions, as it contributes one ExplainAll: an update's
// cost depends on where in the graph its edge lands (2.6 to 5.2 ms between
// instances with one edge each) and a retract costs half as much again as an
// add, so single updates are a mixture whose median moves with the mix.
const (
	kgReads = 16
	kgEdges = 8
)

// kgInstance is one generated ownership graph and its what-if edges.
type kgInstance struct {
	facts []ast.Atom
	edges [][]ast.Atom
}

// genKG draws the instances of one kg_batch set-up.
func genKG(w *workloadSpec, seed int64, scale float64) []kgInstance {
	width := scaled(w.Width, scale)
	out := make([]kgInstance, kgInstances)
	for i := range out {
		facts := synth.RandomControl(w.Layers, width, seed*1000+int64(i)).Facts
		out[i].facts = facts
		// What-if edge e gives the owner of the fact e eighths of the way
		// through the list (facts come layer by layer, so the edges start
		// at every depth) a majority stake in the company the next other
		// owner holds: adding it derives control facts downstream, and
		// retracting it over-deletes them.
		for e := 0; e < kgEdges; e++ {
			at := e * len(facts) / kgEdges
			owner := facts[at].Terms[0]
			target := owner
			for k := 1; k < len(facts) && target.Equal(owner); k++ {
				if f := facts[(at+k)%len(facts)]; !f.Terms[0].Equal(owner) {
					target = f.Terms[1]
				}
			}
			out[i].edges = append(out[i].edges, []ast.Atom{ast.NewAtom("Own", owner, target, term.Float(0.9))})
		}
	}
	return out
}

// runKGBatch drives the pipeline in process: per instance one Reason, one
// ExplainAll, a few renderings of the answer list, and a few what-if updates
// on a maintainer of the same instance.
//
// The driver's contract has every workload report every end-to-end metric
// ("with --trace 0 the metrics are every end_to_end metric", none ever 0),
// so the serving names stand here for the same user action done through the
// library: open = one Reason (the issue's reason_s), explain = ExplainAll
// per explanation (explain_all_s / answers), read = Result.Answers plus
// Atom.String of each answer, which is all the server's read handler does
// with a result, write = one what-if Maintainer.Update, sat_ops_s = answers
// reasoned and explained per second of Reason + ExplainAll time. Each is
// the median over cycles of the cycle's mean.
func runKGBatch(w *workloadSpec, cfg *runConfig) (*runResult, error) {
	res := newResult(w, cfg)
	mark := time.Now()
	var setups samples
	var pipe *core.Pipeline
	var insts []kgInstance
	for i := 0; i < w.Setups; i++ {
		start := time.Now()
		insts = genKG(w, cfg.seed, cfg.scale)
		var err error
		if pipe, err = apps.CompanyControl().Pipeline(core.Config{}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	res.phase("setup", &mark)
	var open, explain, read, write samples
	var explained int
	var busy time.Duration // Reason + ExplainAll
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		inst := insts[i%len(insts)]

		start := time.Now()
		result, err := pipe.Reason(inst.facts...)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("kg_batch: reason: %w", err)
		}
		open = append(open, ms(d))
		busy += d

		start = time.Now()
		expls, err := pipe.ExplainAll(result)
		d = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("kg_batch: explain all: %w", err)
		}
		if len(expls) == 0 {
			return nil, fmt.Errorf("kg_batch: instance %d has no answers", i)
		}
		explain = append(explain, ms(d)/float64(len(expls)))
		busy += d
		explained += len(expls)
		res.Attempted += 1 + len(expls)
		for _, e := range expls {
			if err := e.Verify(); err != nil {
				res.fail(1, "incomplete explanation: %v", err)
			}
		}

		// Each block of short operations starts from a collected heap, so
		// that it pays for its own garbage and not for the thousands of
		// explanations the stage before it left behind (measured: the
		// update median moved by a fifth from run to run without this).
		var answers []string
		runtime.GC()
		start = time.Now()
		for k := 0; k < kgReads; k++ {
			answers = renderAnswers(result)
		}
		read = append(read, ms(time.Since(start))/kgReads)
		res.Attempted += kgReads
		baseHash := hashAnswers(answers)

		// What-if: add an edge, retract it, then the next edge; each
		// retract must bring the answers back to the Reason result's.
		m, err := pipe.Maintain(inst.facts...)
		if err != nil {
			return nil, fmt.Errorf("kg_batch: maintain: %w", err)
		}
		var updates time.Duration
		runtime.GC()
		for _, edge := range inst.edges {
			for _, step := range [2]struct{ add, retract []ast.Atom }{{add: edge}, {retract: edge}} {
				start = time.Now()
				after, _, err := m.Update(step.add, step.retract)
				updates += time.Since(start)
				res.Attempted++
				if err != nil {
					return nil, fmt.Errorf("kg_batch: what-if update of %v: %w", edge[0], err)
				}
				if step.retract != nil && hashAnswers(renderAnswers(after)) != baseHash {
					res.fail(1, "retracting what-if edge %v did not restore the answers", edge[0])
				}
			}
		}
		write = append(write, ms(updates)/(2*kgEdges))
	}

	res.phase("cycles", &mark)
	res.Metrics["open_p50_ms"] = open.p50()
	res.Metrics["explain_p50_ms"] = explain.p50()
	res.Metrics["read_p50_ms"] = read.p50()
	res.Metrics["write_p50_ms"] = write.p50()
	res.Metrics["sat_ops_s"] = float64(explained) / busy.Seconds()
	res.Metrics["peak_rss_mb"] = peakRSSMiB(os.Getpid())
	res.Metrics["setup_s"] = setups.p50()
	res.Samples["open"], res.Samples["explain"] = len(open), len(explain)
	res.Samples["read"], res.Samples["write"] = len(read), len(write)
	res.Samples["setup"] = len(setups)
	res.End = time.Now()
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
