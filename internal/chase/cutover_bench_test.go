package chase_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/parser"
	"repro/internal/synth"
)

// BenchmarkJoinCutover is the measurement behind the engine's frame/batch
// cut-over (batchMinExtent in batch.go): the same chase with the engine
// pinned to the frame executor and to the batch executor, from session-sized
// stores to a few hundred thousand facts. The small side is what the serving
// tier runs — every bundled application on its scenario (the workloads of
// BENCH_serving.json) and the session-sized instance behind the benchmark's
// chase.small_run_us; the large side is kg_batch's shape (company control
// over synth.RandomControl) and the two `bench -fig columnar` programs over
// synth.LayeredOwnership. The reported eval-us excludes fact ingestion, which
// is the same code either way.
func BenchmarkJoinCutover(b *testing.B) {
	type workload struct {
		name  string
		prog  *ast.Program
		facts []ast.Atom
	}
	var workloads []workload
	for _, app := range apps.All() {
		workloads = append(workloads, workload{"app-" + app.Name, app.Program(), app.Scenario()})
	}
	control := apps.CompanyControl().Program()
	workloads = append(workloads, workload{"control-chain-joint", control, synth.ControlChainJoint(12, 3, 1).Facts})
	for _, width := range []int{10, 30, 100, 300, 1000, 2000, 10000} {
		workloads = append(workloads, workload{"control-random", control, synth.RandomControl(6, width, 1).Facts})
	}
	twoHop := parser.MustParse(`
@output("Risky").
@label("t1") Risky(X, Z) :- Own(X, Y, S1), Own(Y, Z, S2), S1 > 0.5, S2 > 0.5.
`)
	reach := parser.MustParse(`
@output("Reach").
@label("r1") Reach(X) :- Source(X).
@label("r2") Reach(Y) :- Reach(X), Own(X, Y, S), S > 0.5.
`)
	for _, sz := range [][3]int{{4, 4, 2}, {4, 8, 4}, {8, 8, 4}, {8, 16, 8}, {8, 16, 12}, {8, 20, 13}, {8, 24, 16}, {8, 32, 16}, {16, 64, 16}, {32, 128, 16}, {32, 300, 16}} {
		facts := synth.LayeredOwnership(sz[0], sz[1], sz[2], 42)
		workloads = append(workloads, workload{"two-hop", twoHop, facts}, workload{"majority-reach", reach, facts})
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			name string
			tn   chase.Tuning
		}{{"frame", chase.FrameOnly}, {"batch", chase.BatchOnly}} {
			b.Run(fmt.Sprintf("%s/facts=%d/%s", w.name, len(w.facts), mode.name), func(b *testing.B) {
				eval := 0.0
				for i := 0; i < b.N; i++ {
					chase.WithTuning(mode.tn, func() {
						res, err := chase.Run(w.prog, chase.Options{ExtraFacts: w.facts})
						if err != nil {
							b.Fatal(err)
						}
						eval += res.EvalSeconds
					})
				}
				b.ReportMetric(eval/float64(b.N)*1e6, "eval-us")
			})
		}
	}
}
