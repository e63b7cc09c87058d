package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRuns loads the untraced runs of a JSON-lines result file in which no
// operation failed, grouped by workload and metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Run == nil || rec.Run.Trace || rec.Run.Failed > 0 {
			continue
		}
		byMetric := out[rec.Run.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			out[rec.Run.Workload] = byMetric
		}
		for name, v := range rec.Run.Metrics {
			byMetric[name] = append(byMetric[name], v)
		}
	}
	return out, sc.Err()
}

// minCompareRuns is the fewest runs a side needs for a verdict. Several
// bounds sit at the 0.25 the driver caps them at, about twice the spread
// between single runs on a small shared machine (README.md, Calibration);
// the median of ten runs moves by a few percent, the median of three does
// not say much.
const minCompareRuns = 10

// verdict judges one workload x metric pair over n runs a side. change is
// how much worse B's median is than A's, as a share of A's (negative when B
// is better).
func verdict(change, spread, bound float64, n int) string {
	switch {
	case n < minCompareRuns:
		return fmt.Sprintf("unresolved (under %d runs)", minCompareRuns)
	case spread > bound:
		return "unresolved"
	case change > bound:
		return "worse"
	case change < -spread && change < 0:
		return "better"
	}
	return "within bound"
}

// compareFiles prints one row per workload and end-to-end metric with both
// medians, the bound BENCHMARK.json fixes and a verdict, and reports whether
// any row is worse.
func compareFiles(out io.Writer, benchmarkJSON, pathA, pathB string) (bool, error) {
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	for w := range a {
		if b[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	anyWorse := false
	fmt.Fprintf(out, "%-14s %-16s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, w := range names {
		for _, m := range bf.EndToEnd {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := samples(va).p50(), samples(vb).p50()
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
				if m.Better == "higher" {
					change = -change
				}
			}
			sp := max(spread(va), spread(vb))
			v := verdict(change, sp, m.Bound, min(len(va), len(vb)))
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(out, "%-14s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				w, m.Name, ma, mb, 100*change, 100*sp, 100*m.Bound, v, len(va), len(vb))
		}
	}
	return anyWorse, nil
}
