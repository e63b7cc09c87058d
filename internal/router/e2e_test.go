package router

// Multi-process end-to-end test of the sharded serving tier: three real
// worker processes over one shared WAL directory, the router in front,
// one worker SIGKILLed mid-traffic. Every session must keep answering —
// the dead worker's sessions hash to ring successors, which restore them
// from the shared directory — and writes must keep committing at the
// epochs the sessions had reached.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

type e2eReason struct {
	Session string   `json:"session"`
	Epoch   uint64   `json:"epoch"`
	Answers []string `json:"answers"`
}

// startWorkerProcess launches one serve-equivalent child over dir and
// returns its base URL once it reports its listener.
func startWorkerProcess(t *testing.T, dir string) (*exec.Cmd, string) {
	return startWorkerProcessAt(t, dir, "")
}

// startWorkerProcessAt is startWorkerProcess pinned to a fixed listen
// address — how a killed worker "rejoins" at the URL the router knows.
func startWorkerProcessAt(t *testing.T, dir, addr string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestRouterE2EWorker$")
	cmd.Env = append(os.Environ(), "ROUTER_E2E_WORKER=1", "ROUTER_E2E_DIR="+dir, "ROUTER_E2E_ADDR="+addr)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		if url, ok := strings.CutPrefix(scanner.Text(), "LISTENING "); ok {
			go func() { // keep draining so the child never blocks on stdout
				for scanner.Scan() {
				}
			}()
			return cmd, url
		}
	}
	t.Fatalf("worker never reported its listener (scan err %v)", scanner.Err())
	return nil, ""
}

func TestRoutedTierSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	// 12 sessions over 3 workers of 3 resident slots: at least one worker
	// holds more sessions than fit and serves them by evicting and restoring.
	const resident = 3
	t.Setenv("ROUTER_E2E_RESIDENT", strconv.Itoa(resident))
	var (
		cmds    []*exec.Cmd
		urls    []string
		byURL   = map[string]*exec.Cmd{}
		workers = 3
	)
	for i := 0; i < workers; i++ {
		cmd, url := startWorkerProcess(t, dir)
		cmds = append(cmds, cmd)
		urls = append(urls, url)
		byURL[url] = cmd
	}
	rt, err := New(Options{Workers: urls, HealthFailures: 1, RetryBackoff: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Open sessions through the router (it mints the ids), give each one
	// committed write, and record the state every session must preserve.
	const sessions = 12
	ids := make([]string, sessions)
	before := make([]e2eReason, sessions)
	for i := range ids {
		var rr e2eReason
		resp := postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
		if resp.StatusCode != http.StatusOK || rr.Session == "" {
			t.Fatalf("create %d: status %d session %q", i, resp.StatusCode, rr.Session)
		}
		ids[i] = rr.Session
		body := fmt.Sprintf(`{"session":%q,"add":"Own(\"Y\",\"Z%d\",0.8)."}`, rr.Session, i)
		if resp := postJSON(t, ts.URL+"/facts", body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("write %d: status %d", i, resp.StatusCode)
		}
		resp = postJSON(t, ts.URL+"/reason", fmt.Sprintf(`{"session":%q}`, rr.Session), &before[i])
		if resp.StatusCode != http.StatusOK || before[i].Epoch != 1 {
			t.Fatalf("read %d: status %d epoch %d", i, resp.StatusCode, before[i].Epoch)
		}
	}

	// The population exceeds residency on at least one worker, so touching
	// every session again goes through eviction and restore behind the
	// router — with identical answers and nothing failing.
	for i, id := range ids {
		var again e2eReason
		resp := postJSON(t, ts.URL+"/reason", fmt.Sprintf(`{"session":%q}`, id), &again)
		if resp.StatusCode != http.StatusOK || again.Epoch != before[i].Epoch ||
			strings.Join(again.Answers, "\n") != strings.Join(before[i].Answers, "\n") {
			t.Fatalf("session %s re-read under churn: status %d, %+v, want %+v", id, resp.StatusCode, again, before[i])
		}
	}
	var restores uint64
	for _, url := range urls {
		var st struct {
			WritePath struct {
				Restores uint64 `json:"restores"`
			} `json:"writePath"`
		}
		resp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		restores += st.WritePath.Restores
	}
	if restores == 0 {
		t.Errorf("%d sessions over %d workers of %d resident slots induced no restores", sessions, workers, resident)
	}

	// SIGKILL the worker that owns the most sessions (fall back to any):
	// no drain, no checkpoint — the hard-crash path.
	owned := map[string]int{}
	st := rt.Snapshot()
	victim := urls[1]
	for url, ws := range st.Workers {
		owned[url] = int(ws.Proxied)
		if owned[url] > owned[victim] {
			victim = url
		}
	}
	if owned[victim] == 0 {
		t.Fatal("no worker saw any traffic")
	}
	t.Logf("killing %s (proxied %d of %d requests)", victim, owned[victim], 3*sessions)
	if err := byURL[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = byURL[victim].Wait()

	// Every session still answers with its pre-kill state: survivors from
	// their live engines, the victim's sessions restored from the shared
	// WAL directory by their new owners.
	for i, id := range ids {
		var after e2eReason
		resp := postJSON(t, ts.URL+"/reason", fmt.Sprintf(`{"session":%q}`, id), &after)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s after kill: status %d", id, resp.StatusCode)
		}
		if after.Epoch != before[i].Epoch ||
			strings.Join(after.Answers, "\n") != strings.Join(before[i].Answers, "\n") {
			t.Errorf("session %s state diverged after worker kill:\nbefore %+v\nafter  %+v", id, before[i], after)
		}
		// And keeps committing where it left off.
		body := fmt.Sprintf(`{"session":%q,"add":"Own(\"Z%d\",\"W\",0.7)."}`, id, i)
		var fr struct {
			Epoch uint64 `json:"epoch"`
		}
		if resp := postJSON(t, ts.URL+"/facts", body, &fr); resp.StatusCode != http.StatusOK || fr.Epoch != 2 {
			t.Errorf("session %s write after kill: status %d epoch %d, want 200 epoch 2", id, resp.StatusCode, fr.Epoch)
		}
	}
	st = rt.Snapshot()
	if st.Failovers == 0 && owned[victim] > 0 {
		t.Error("kill caused no failovers; victim traffic unaccounted for")
	}
	if ws := st.Workers[victim]; ws.Healthy {
		t.Error("killed worker still marked healthy")
	}
	_ = cmds
}

// TestRoutedTierRebalancesOnWorkerRejoin extends the kill test with a
// rejoin: the victim comes back at its old URL, the router readmits it and
// proactively migrates its ring-owned sessions back (release on the
// survivor, prewarm on the rejoined worker) — and every migrated session
// answers at its exact pre-kill epoch and keeps committing from there.
func TestRoutedTierRebalancesOnWorkerRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	var (
		urls    []string
		byURL   = map[string]*exec.Cmd{}
		workers = 3
	)
	for i := 0; i < workers; i++ {
		cmd, url := startWorkerProcess(t, dir)
		urls = append(urls, url)
		byURL[url] = cmd
	}
	rt, err := New(Options{
		Workers:        urls,
		HealthInterval: 25 * time.Millisecond,
		HealthFailures: 1,
		RetryBackoff:   5 * time.Millisecond,
		Rebalance:      true,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	const sessions = 12
	ids := make([]string, sessions)
	before := make([]e2eReason, sessions)
	for i := range ids {
		var rr e2eReason
		resp := postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
		if resp.StatusCode != http.StatusOK || rr.Session == "" {
			t.Fatalf("create %d: status %d session %q", i, resp.StatusCode, rr.Session)
		}
		ids[i] = rr.Session
		body := fmt.Sprintf(`{"session":%q,"add":"Own(\"Y\",\"Z%d\",0.8)."}`, rr.Session, i)
		if resp := postJSON(t, ts.URL+"/facts", body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("write %d: status %d", i, resp.StatusCode)
		}
		resp = postJSON(t, ts.URL+"/reason", fmt.Sprintf(`{"session":%q}`, rr.Session), &before[i])
		if resp.StatusCode != http.StatusOK || before[i].Epoch != 1 {
			t.Fatalf("read %d: status %d epoch %d", i, resp.StatusCode, before[i].Epoch)
		}
	}

	// Kill the busiest worker, then touch every session so the victim's
	// sessions are restored — and now resident — on ring survivors.
	st := rt.Snapshot()
	victim := urls[0]
	for url, ws := range st.Workers {
		if ws.Proxied > st.Workers[victim].Proxied {
			victim = url
		}
	}
	var victimOwned []string
	for _, id := range ids {
		if owner, ok := rt.ring.Lookup(id); ok && owner == victim {
			victimOwned = append(victimOwned, id)
		}
	}
	if len(victimOwned) == 0 {
		t.Skip("hash spread gave the victim no sessions; nothing to migrate back")
	}
	t.Logf("killing %s (owns %d of %d sessions)", victim, len(victimOwned), sessions)
	if err := byURL[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = byURL[victim].Wait()
	for _, id := range ids {
		if resp := postJSON(t, ts.URL+"/reason", fmt.Sprintf(`{"session":%q}`, id), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s after kill: status %d", id, resp.StatusCode)
		}
	}

	// Rejoin at the old URL; the health loop readmits the worker and kicks
	// a rebalance that migrates its sessions home ahead of traffic.
	migratedBefore := rt.Snapshot().MigratedSessions
	_, rejoined := startWorkerProcessAt(t, dir, strings.TrimPrefix(victim, "http://"))
	if rejoined != victim {
		t.Fatalf("rejoined worker listens at %s, want the victim's %s", rejoined, victim)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st = rt.Snapshot()
		if st.Workers[victim].Healthy && !st.Workers[victim].Draining &&
			st.Rebalances > 0 && st.MigratedSessions >= migratedBefore+uint64(len(victimOwned)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebalance never completed: victim %+v, rebalances %d, migrated %d (want >= %d)",
				st.Workers[victim], st.Rebalances, st.MigratedSessions, migratedBefore+uint64(len(victimOwned)))
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("rejoin migrated %d sessions over %d rounds", st.MigratedSessions-migratedBefore, st.Rebalances)

	// Every session — migrated ones especially — answers at its exact
	// pre-kill epoch with identical state, and commits the next epoch.
	for i, id := range ids {
		var after e2eReason
		resp := postJSON(t, ts.URL+"/reason", fmt.Sprintf(`{"session":%q}`, id), &after)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s after rejoin: status %d", id, resp.StatusCode)
		}
		if after.Epoch != before[i].Epoch ||
			strings.Join(after.Answers, "\n") != strings.Join(before[i].Answers, "\n") {
			t.Errorf("session %s state diverged after rebalance:\nbefore %+v\nafter  %+v", id, before[i], after)
		}
		var fr struct {
			Epoch uint64 `json:"epoch"`
		}
		body := fmt.Sprintf(`{"session":%q,"add":"Own(\"Z%d\",\"W\",0.7)."}`, id, i)
		if resp := postJSON(t, ts.URL+"/facts", body, &fr); resp.StatusCode != http.StatusOK || fr.Epoch != 2 {
			t.Errorf("session %s write after rebalance: status %d epoch %d, want 200 epoch 2", id, resp.StatusCode, fr.Epoch)
		}
	}
}

// TestRouterE2EWorker is the subprocess body: a real durable server on an
// ephemeral port, address reported on stdout, runs until killed.
func TestRouterE2EWorker(t *testing.T) {
	if os.Getenv("ROUTER_E2E_WORKER") == "" {
		t.Skip("subprocess helper, driven by TestRoutedTierSurvivesWorkerKill")
	}
	runE2EWorker(os.Getenv("ROUTER_E2E_DIR"), os.Getenv("ROUTER_E2E_ADDR"))
}

// runE2EWorker is the child's serve loop: durable server, ephemeral port
// (or a fixed addr for rejoin tests — retried briefly, since the killed
// predecessor's port can take a moment to free).
func runE2EWorker(dir, addr string) {
	// ROUTER_E2E_RESIDENT, when a test sets it, shrinks the worker's
	// resident-session capacity (unset = 0 = the server default).
	resident, _ := strconv.Atoi(os.Getenv("ROUTER_E2E_RESIDENT"))
	s, err := server.NewWithOptions(server.Options{WALDir: dir, MaxSessions: resident})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e worker:", err)
		os.Exit(1)
	}
	listen := addr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	var ln net.Listener
	for deadline := time.Now().Add(10 * time.Second); ; {
		ln, err = net.Listen("tcp", listen)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "e2e worker:", err)
			os.Exit(1)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("LISTENING http://%s\n", ln.Addr())
	_ = http.Serve(ln, s.Handler())
}
