package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns stores reps repetitions of values, one run each.
func writeRuns(t *testing.T, path, workload string, metric string, reps int, values ...float64) {
	t.Helper()
	for i := 0; i < reps*len(values); i++ {
		v := values[i%len(values)]
		res := &runResult{Workload: workload, Seed: int64(i), Metrics: map[string]float64{metric: v, "setup_s": 1}}
		if err := appendRun(path, &envelope{Workload: workload}, res); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"read_p50_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"sat_ops_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	writeRuns(t, a, "w_worse", "read_p50_ms", 4, 1.00, 1.01, 0.99)
	writeRuns(t, b, "w_worse", "read_p50_ms", 4, 1.20, 1.21, 1.19)
	writeRuns(t, a, "w_better", "sat_ops_s", 4, 100, 101, 99)
	writeRuns(t, b, "w_better", "sat_ops_s", 4, 130, 131, 129)
	writeRuns(t, a, "w_noisy", "read_p50_ms", 4, 1.0, 2.0, 3.0)
	writeRuns(t, b, "w_noisy", "read_p50_ms", 4, 1.0, 2.0, 3.0)
	writeRuns(t, a, "w_few", "read_p50_ms", 1, 1.00, 1.01, 0.99)
	writeRuns(t, b, "w_few", "read_p50_ms", 1, 1.20, 1.21, 1.19)

	var out bytes.Buffer
	worse, err := compareFiles(&out, bench, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 20% slower read median was not reported as worse")
	}
	for _, want := range []string{"w_worse", "worse", "w_better", "better", "unresolved", "within bound"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "w_worse") && strings.Contains(line, "read_p50_ms") && !strings.Contains(line, "worse"),
			strings.HasPrefix(line, "w_better") && strings.Contains(line, "sat_ops_s") && !strings.Contains(line, "better"),
			strings.HasPrefix(line, "w_noisy") && strings.Contains(line, "read_p50_ms") && !strings.Contains(line, "unresolved"),
			strings.HasPrefix(line, "w_few") && strings.Contains(line, "read_p50_ms") && !strings.Contains(line, "unresolved (under 10 runs)"):
			t.Errorf("wrong verdict: %s", line)
		}
	}

	out.Reset()
	if worse, err := compareFiles(&out, bench, a, a); err != nil || worse {
		t.Errorf("a file against itself: worse=%v err=%v", worse, err)
	}
}
