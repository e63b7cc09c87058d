package figures

import (
	"strings"
	"testing"
)

// TestColumnarThroughputSmall runs the columnar benchmark at a scale just
// past the engine's frame/batch cut-over (8 x 40 x 16 = 4,480 Own facts):
// both workloads derive facts, report a positive evaluation time, and show
// through the strategy counters that the batch executor served them.
func TestColumnarThroughputSmall(t *testing.T) {
	table, points, err := columnarThroughput(8, 40, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	for _, pt := range points {
		if pt.Facts == 0 {
			t.Fatalf("%s: no extensional facts", pt.Workload)
		}
		if pt.Derived <= 0 {
			t.Fatalf("%s: nothing derived", pt.Workload)
		}
		if pt.EvalSeconds <= 0 {
			t.Fatalf("%s: non-positive timing: %+v", pt.Workload, pt)
		}
		if pt.Joins.BatchJoins == 0 {
			t.Fatalf("%s: batch executor never ran: %+v", pt.Workload, pt.Joins)
		}
		if !strings.Contains(table, pt.Workload) {
			t.Fatalf("table missing workload %s:\n%s", pt.Workload, table)
		}
	}
}
