package main

import (
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// repoRoot is the checkout: tests run in benchmark/, one level below it.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and the code that prints
// the metrics in step: same workloads, same metric names and units.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	root := repoRoot(t)
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name, Unit, Why string
		Bound           float64
	}
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d, spec.go has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), spec.go %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("workloads: BENCHMARK.json has %d, spec.go has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, spec.go %q", i, doc.Workloads[i].Name, w.Name)
		}
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at a fiftieth of its size, traced
// (the superset of what an untraced run does): subprocesses start, answer,
// are checked against the oracle and stop; nothing is left listening and no
// scratch directory survives.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the server binaries")
	}
	root := repoRoot(t)
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	scratch, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "selftest-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(scratch)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := &runConfig{
		root:    root,
		binDir:  filepath.Join(root, ".bench_build", "bin"),
		tmpRoot: filepath.Join(scratch, "tmp"),
		outDir:  filepath.Join(scratch, "out"),
		seed:    7,
		seconds: 0.2,
		scale:   0.02,
		trace:   true,
		conns:   runtime.NumCPU(),
	}
	if _, err := buildServers(cfg.root, cfg.binDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		var res *runResult
		tr := newTracer()
		if w.Serves > 0 {
			runtime.GOMAXPROCS(1)
			res, err = runServing(w, cfg, tr)
		} else {
			res, err = runKGBatch(w, cfg)
		}
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := runLayerProbes(w, cfg, tr, res); err != nil {
			t.Fatalf("%s: layer probes: %v", w.Name, err)
		}
		t.Logf("%s: phases %v", w.Name, res.Phases)
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Notes)
		}
		for _, m := range endToEnd {
			// At this size a class that is a tenth of the mix may draw no
			// request at all; its median is then rightly missing.
			if class, ok := strings.CutSuffix(m.Name, "_p50_ms"); ok && res.Samples[class] == 0 {
				continue
			}
			if res.Metrics[m.Name] <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.Name, m.Name, res.Metrics[m.Name])
			}
		}
		for _, s := range tr.spans {
			if s.End < s.Start || (s.Parent >= 0 && tr.spans[s.Parent].Req != s.Req) {
				t.Fatalf("%s: span %+v does not nest under its request", w.Name, s)
			}
		}
		if w.Serves == 0 {
			continue
		}
		if v, ok := res.Metrics["router.hop_us"]; ok != w.Router {
			t.Errorf("%s: router.hop_us present=%v (%v), router=%v", w.Name, ok, v, w.Router)
		}
		for _, addr := range res.addrs {
			if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
				c.Close()
				t.Errorf("%s: %s is still listening", w.Name, addr)
			}
		}
	}
	left, err := os.ReadDir(cfg.tmpRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestPeakRSSIsTheChildsOwn holds 256 MiB in this process and starts a small
// child: the child's reported peak must be its own few MiB. The rusage that
// Wait collects would charge it this process's resident set (exec folds the
// forking process's high-water mark into the child's ru_maxrss), which is how
// a router came to "use" as much memory as the load generator.
func TestPeakRSSIsTheChildsOwn(t *testing.T) {
	ballast := make([]byte, 256<<20)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	cmd := exec.Command("sleep", "30")
	if err := cmd.Start(); err != nil {
		t.Skipf("no sleep to start: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // let the child load its libraries
	rss := peakRSSMiB(cmd.Process.Pid)
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	runtime.KeepAlive(ballast)
	own := peakRSSMiB(os.Getpid())
	t.Logf("child %.1f MiB, this process %.1f MiB", rss, own)
	if own < 256 {
		t.Fatalf("this process reports %.1f MiB while holding 256", own)
	}
	if rss <= 0 || rss > 32 {
		t.Errorf("child's peak RSS = %.1f MiB, want its own (a few MiB)", rss)
	}
}
