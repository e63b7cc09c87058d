package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// envelope records where and how a run was made; it is printed with every
// run and stored in every result file, so two numbers are never compared
// without knowing whether the same machine and toolchain produced them.
type envelope struct {
	Commit         string         `json:"commit"`
	GoVersion      string         `json:"goVersion"`
	NProc          int            `json:"nproc"`
	CPUModel       string         `json:"cpuModel"`
	Kernel         string         `json:"kernel"`
	GeneratorProcs int            `json:"generatorGOMAXPROCS"`
	ServerProcs    int            `json:"serverGOMAXPROCS"`
	Connections    int            `json:"connections"`
	Pinned         bool           `json:"cpuPinned"` // generator on one CPU, servers on the others
	Workload       string         `json:"workload"`
	ServeArgs      []string       `json:"serveArgs,omitempty"`
	Seed           int64          `json:"seed"`
	Seconds        float64        `json:"seconds"`
	Scale          float64        `json:"scale"`
	Trace          bool           `json:"trace"`
	FsyncProbeUs   float64        `json:"fsyncProbeUs"`
	Samples        map[string]int `json:"samples"`
	Start          time.Time      `json:"start"`
	End            time.Time      `json:"end"`
}

func newEnvelope(cfg *runConfig, w *workloadSpec, res *runResult) *envelope {
	e := &envelope{
		Commit:         commitOf(cfg.root),
		GoVersion:      runtime.Version(),
		NProc:          runtime.NumCPU(),
		CPUModel:       cpuModel(),
		Kernel:         readTrimmed("/proc/sys/kernel/osrelease"),
		GeneratorProcs: runtime.GOMAXPROCS(0),
		Connections:    cfg.conns,
		Workload:       w.Name,
		ServeArgs:      w.ServeArgs,
		Seed:           cfg.seed,
		Seconds:        cfg.seconds,
		Scale:          cfg.scale,
		Trace:          cfg.trace,
		FsyncProbeUs:   res.Metrics["harness.fsync_probe_us"],
		Samples:        res.Samples,
		Start:          res.Start,
		End:            res.End,
	}
	if w.Serves > 0 {
		e.ServerProcs = serverProcs()
		e.Pinned = cfg.cpus.pinned
	}
	return e
}

// commitOf asks git; a checkout that is not a repository says so.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func readTrimmed(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runRecord is one line of an -out file.
type runRecord struct {
	Envelope *envelope  `json:"envelope"`
	Run      *runResult `json:"run"`
}

// appendRun adds one run to a JSON-lines result file.
func appendRun(path string, env *envelope, res *runResult) error {
	data, err := json.Marshal(runRecord{env, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
