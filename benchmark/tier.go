package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServers compiles cmd/serve and cmd/router from the checkout into
// binDir and reports how long that took.
func buildServers(root, binDir string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/serve", "./cmd/router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building servers: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// proc is one server subprocess.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when Wait has returned
}

// serverProcs is GOMAXPROCS for every server subprocess: all cores but the
// one the load generator keeps.
func serverProcs() int {
	if n := runtime.NumCPU() - 1; n > 1 {
		return n
	}
	return 1
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startProc(cpus cpuPlan, name, bin, dir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs()))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cpus.startOnServerCPUs(cmd.Start); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a signalled server is not news
		close(p.done)
	}()
	return p, nil
}

// ready polls /stats until the process answers.
func (p *proc) ready(client *http.Client) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get(p.url + "/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up:\n%s", p.name, p.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 15s:\n%s", p.name, p.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *proc) logTail() string {
	data, err := os.ReadFile(p.log.Name())
	if err != nil {
		return err.Error()
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// peakRSSMiB is a live process's peak resident set (VmHWM in
// /proc/<pid>/status), 0 if it cannot be read. The rusage a parent collects
// at Wait cannot be used for this: exec folds the forking process's
// high-water mark into the child's ru_maxrss, so every server would report
// at least the load generator's own RSS (checked: /bin/true started by a Go
// process holding 600 MiB reports 602 MiB). VmHWM starts over at exec.
func peakRSSMiB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kib / 1024
		}
	}
	return 0
}

// stop ends the process and waits for it: SIGTERM (graceful drain) unless
// kill is set, SIGKILL after 15 s either way. It returns the peak resident
// set in MiB, read just before the signal.
func (p *proc) stop(kill bool) float64 {
	rss := peakRSSMiB(p.cmd.Process.Pid)
	sig := syscall.SIGTERM
	if kill {
		sig = syscall.SIGKILL
	}
	_ = p.cmd.Process.Signal(sig)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
	return rss
}

// tier is one running topology: workers over a shared WAL directory, with
// or without a router in front.
type tier struct {
	dir     string // scratch directory of this tier (logs, WAL)
	walDir  string
	bin     string
	args    []string
	workers []*proc
	router  *proc
	client  *http.Client
	cpus    cpuPlan
}

// startTier launches the workload's topology and waits until it answers.
func startTier(w *workloadSpec, binDir, dir string, client *http.Client, cpus cpuPlan) (*tier, error) {
	t := &tier{dir: dir, walDir: filepath.Join(dir, "wal"), bin: binDir, args: w.ServeArgs, client: client, cpus: cpus}
	if err := os.MkdirAll(t.walDir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < w.Serves; i++ {
		if err := t.startWorker(i); err != nil {
			t.stop(true)
			return nil, err
		}
	}
	if w.Router {
		urls := make([]string, len(t.workers))
		for i, p := range t.workers {
			urls[i] = p.url
		}
		p, err := startProc(cpus, "router", filepath.Join(binDir, "router"), dir, "-workers", strings.Join(urls, ","))
		if err == nil {
			t.router = p
			err = p.ready(client)
		}
		if err != nil {
			t.stop(true)
			return nil, err
		}
	}
	return t, nil
}

func (t *tier) startWorker(i int) error {
	args := append([]string{"-wal-dir", t.walDir}, t.args...)
	p, err := startProc(t.cpus, fmt.Sprintf("serve-%d", i), filepath.Join(t.bin, "serve"), t.dir, args...)
	if err != nil {
		return err
	}
	if i < len(t.workers) {
		t.workers[i] = p
	} else {
		t.workers = append(t.workers, p)
	}
	return p.ready(t.client)
}

// addrs lists the host:port every process of the tier listens on.
func (t *tier) addrs() []string {
	var out []string
	for _, p := range t.workers {
		out = append(out, strings.TrimPrefix(p.url, "http://"))
	}
	if t.router != nil {
		out = append(out, strings.TrimPrefix(t.router.url, "http://"))
	}
	return out
}

// front is the URL clients talk to.
func (t *tier) front() string {
	if t.router != nil {
		return t.router.url
	}
	return t.workers[0].url
}

// stop ends every process and returns the peak RSS in MiB of the router and
// of the workers together.
func (t *tier) stop(kill bool) (router, workers float64) {
	if t.router != nil {
		router = t.router.stop(kill)
		t.router = nil
	}
	for _, p := range t.workers {
		workers += p.stop(kill)
	}
	t.workers = nil
	return router, workers
}

// fetchStats fetches and decodes a /stats document.
func fetchStats(client *http.Client, url string) (any, error) {
	resp, err := client.Get(url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// dirBytes is the size on disk of every regular file under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
