package figures

// Columnar join-throughput benchmark (`bench -fig columnar`): the chase
// engine timed on million-fact synthetic ownership chases, with the join
// strategies it chose for them. Fact ingestion (parsing, interning,
// hash-index construction) would dilute the join numbers at this scale, so
// the rows report chase.Result.EvalSeconds (plan compilation + chase to
// fixpoint) with the ingestion cost shown beside it, and
// chase.Result.JoinStats: how many rule evaluations went to the frame and
// to the batch executor, and which passes the latter ran.

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/database"
	"repro/internal/parser"
	"repro/internal/synth"
)

// ColumnarPoint is one workload row of the columnar throughput benchmark.
type ColumnarPoint struct {
	// Workload names the measured chase.
	Workload string `json:"workload"`
	// Facts is the extensional database size.
	Facts int `json:"facts"`
	// Derived is the number of facts the chase adds.
	Derived int `json:"derived"`
	// IngestSeconds is the fact-ingestion phase (chase.Result.LoadSeconds),
	// reported for context and excluded from EvalSeconds.
	IngestSeconds float64 `json:"ingestSeconds"`
	// EvalSeconds is the rule-evaluation time (chase.Result.EvalSeconds):
	// plan compilation, the chase to fixpoint and constraint checking.
	EvalSeconds float64 `json:"evalSeconds"`
	// Joins are the join strategies the engine chose for the run.
	Joins database.ColumnarStats `json:"joins"`
}

// The two measured rule programs over the layered ownership EKG. Majority
// reachability is the recursive semi-naive workload: every round scans the
// reached frontier's out-edges but extends through the ~8% majority ones,
// and the per-pivot delta restriction is where the batch executor's
// dense-boundary range check replaces the frame executor's scan-and-filter.
// The two-hop probe is the non-recursive bulk-join workload: one pass over
// the full extent with a selective numeric condition at each depth.
const (
	columnarReachRules = `
@name("majority-reach").
@output("Reach").
@label("r1") Reach(X) :- Source(X).
@label("r2") Reach(Y) :- Reach(X), Own(X, Y, S), S > 0.5.
`
	columnarTwoHopRules = `
@name("two-hop").
@output("Risky").
@label("t1") Risky(X, Z) :- Own(X, Y, S1), Own(Y, Z, S2), S1 > 0.5, S2 > 0.5.
`
)

// ColumnarThroughput measures the engine on a million-fact layered
// ownership EKG (64 layers x 500 companies x fanout 32: 1.024M Own facts).
// `bench -fig columnar` renders the table and snapshots the points to
// BENCH_columnar.json.
func ColumnarThroughput() (string, []ColumnarPoint, error) {
	return columnarThroughput(64, 500, 32)
}

// columnarThroughput is ColumnarThroughput at an arbitrary scale (tests run
// a tiny instance).
func columnarThroughput(layers, width, fanout int) (string, []ColumnarPoint, error) {
	facts := synth.LayeredOwnership(layers, width, fanout, 42)
	var points []ColumnarPoint
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %9s %9s %9s %9s %7s %7s %9s %7s %7s\n",
		"workload", "facts", "derived", "ingest s", "eval s",
		"frame", "batch", "leapfrog", "probe", "scan")
	for _, w := range []struct{ name, rules string }{
		{"majority-reach", columnarReachRules},
		{"two-hop", columnarTwoHopRules},
	} {
		pt, err := columnarPoint(w.name, w.rules, facts)
		if err != nil {
			return "", nil, err
		}
		points = append(points, pt)
		fmt.Fprintf(&sb, "%-16s %9d %9d %9.2f %9.3f %7d %7d %9d %7d %7d\n",
			pt.Workload, pt.Facts, pt.Derived, pt.IngestSeconds, pt.EvalSeconds,
			pt.Joins.FrameJoins, pt.Joins.BatchJoins,
			pt.Joins.TriejoinPasses, pt.Joins.ProbePasses, pt.Joins.ScanPasses)
	}
	return sb.String(), points, nil
}

// columnarPoint times one rule program on a freshly collected heap.
func columnarPoint(name, rules string, facts []ast.Atom) (ColumnarPoint, error) {
	prog, err := parser.Parse(rules)
	if err != nil {
		return ColumnarPoint{}, fmt.Errorf("%s: parse: %w", name, err)
	}
	runtime.GC()
	res, err := chase.Run(prog, chase.Options{ExtraFacts: facts})
	if err != nil {
		return ColumnarPoint{}, fmt.Errorf("%s: %w", name, err)
	}
	return ColumnarPoint{
		Workload:      name,
		Facts:         len(facts),
		Derived:       res.Store.Len() - len(facts),
		IngestSeconds: res.LoadSeconds,
		EvalSeconds:   res.EvalSeconds,
		Joins:         res.JoinStats,
	}, nil
}
