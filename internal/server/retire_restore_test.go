package server

// Regression tests for the restore and retirement concurrency model:
// restores of distinct sessions run in parallel (per-session singleflight,
// not a server-wide lock), concurrent restores of one session share a
// single disk read, LRU eviction no longer pays snapshot encode + fsync
// inline, and the drain barriers (restore-after-evict, SnapshotAll) still
// observe every queued retirement.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// seedSessions opens n durable sessions and returns their ids and their
// pre-eviction /reason responses (the byte-identity oracle for restore).
func seedSessions(t *testing.T, url string, n int) ([]string, []reasonResponse) {
	t.Helper()
	ids := make([]string, n)
	before := make([]reasonResponse, n)
	for i := range ids {
		var rr reasonResponse
		body := fmt.Sprintf(`{"app":"company-control","facts":"Own(\"A%d\",\"B%d\",0.6)."}`, i, i)
		if resp := postJSON(t, url+"/reason", body, &rr); resp.StatusCode != http.StatusOK {
			t.Fatalf("open session %d: status %d", i, resp.StatusCode)
		}
		ids[i] = rr.Session
		// A committed write stands the maintainer up, so eviction and
		// release exercise the real checkpoint path, not the read-only
		// (WAL-header-only) shortcut.
		if resp := postJSON(t, url+"/facts",
			fmt.Sprintf(`{"session":%q,"add":"Own(\"B%d\",\"C%d\",0.7)."}`, rr.Session, i, i), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed write %d: status %d", i, resp.StatusCode)
		}
		postJSON(t, url+"/reason", `{"session":"`+rr.Session+`"}`, &before[i])
	}
	return ids, before
}

// TestParallelRestoresDistinctSessions is the restore-storm regression: N
// distinct cold sessions touched at once must all be inside their disk
// restores simultaneously. Under the old server-wide restore lock the
// barrier below can never fill — one restore holds the lock while the
// other N-1 wait outside restoreSession — and the test times out.
func TestParallelRestoresDistinctSessions(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	ts1, s1 := newTestServerFull(t, Options{WALDir: dir})
	ids, before := seedSessions(t, ts1.URL, n)
	s1.SnapshotAll()
	ts1.Close()

	s2, err := NewWithOptions(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan string, n)
	release := make(chan struct{})
	s2.testHookRestore = func(id string) {
		arrived <- id
		<-release
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	after := make([]reasonResponse, n)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			if resp := postJSON(t, ts2.URL+"/reason", `{"session":"`+id+`"}`, &after[i]); resp.StatusCode != http.StatusOK {
				t.Errorf("restore read %s: status %d", id, resp.StatusCode)
			}
		}(i, id)
	}

	// All n restores must reach the hook concurrently.
	seen := map[string]bool{}
	deadline := time.After(10 * time.Second)
	for len(seen) < n {
		select {
		case id := <-arrived:
			seen[id] = true
		case <-deadline:
			t.Fatalf("only %d of %d restores running concurrently — restores are serialized", len(seen), n)
		}
	}
	close(release)
	wg.Wait()

	for i := range ids {
		if after[i].Epoch != before[i].Epoch || after[i].Facts != before[i].Facts {
			t.Errorf("session %s restored state differs: before %+v, after %+v", ids[i], before[i], after[i])
		}
	}
	var st statsResponse
	getJSON(t, ts2.URL+"/stats", &st)
	if st.WritePath.Restores != n {
		t.Errorf("restores = %d, want %d", st.WritePath.Restores, n)
	}
	if st.WritePath.RestoreLatency.Count != n {
		t.Errorf("restore latency count = %d, want %d", st.WritePath.RestoreLatency.Count, n)
	}
}

// TestRestoreSingleflight: concurrent requests for ONE cold session share a
// single restore — the disk work runs once, every waiter gets the restored
// session.
func TestRestoreSingleflight(t *testing.T) {
	const m = 4
	dir := t.TempDir()
	ts1, s1 := newTestServerFull(t, Options{WALDir: dir})
	ids, before := seedSessions(t, ts1.URL, 1)
	s1.SnapshotAll()
	ts1.Close()

	s2, err := NewWithOptions(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	entered := make(chan struct{}, m)
	gate := make(chan struct{})
	s2.testHookRestore = func(string) {
		calls.Add(1)
		entered <- struct{}{}
		<-gate
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	after := make([]reasonResponse, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if resp := postJSON(t, ts2.URL+"/reason", `{"session":"`+ids[0]+`"}`, &after[i]); resp.StatusCode != http.StatusOK {
				t.Errorf("reader %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	<-entered // the leader is inside the restore
	// Give the other readers time to join the flight, then let it finish.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("restore ran %d times for one session, want 1 (singleflight)", got)
	}
	for i := range after {
		if after[i].Epoch != before[0].Epoch {
			t.Errorf("reader %d epoch = %d, want %d", i, after[i].Epoch, before[0].Epoch)
		}
	}
}

// TestAsyncRetirementDoesNotBlockEviction: the request that triggers an LRU
// eviction returns while the evicted session's checkpoint runs in the
// background, and a read racing the retirement waits it out and then
// restores at the exact pre-eviction epoch.
func TestAsyncRetirementDoesNotBlockEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := NewWithOptions(Options{WALDir: dir, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	retiring := make(chan string, 1)
	finish := make(chan struct{})
	s.testHookRetire = func(id string) {
		retiring <- id
		<-finish
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids, before := seedSessions(t, ts.URL, 1)

	// Opening a second session evicts the first; the response must come
	// back while the retirement is still parked on the hook.
	start := time.Now()
	if resp := postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("evicting open: status %d", resp.StatusCode)
	}
	evictLatency := time.Since(start)
	select {
	case id := <-retiring:
		if id != ids[0] {
			t.Fatalf("retiring %q, want %q", id, ids[0])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("eviction returned but no background retirement started")
	}
	if n := s.table.retiringNow(); n != 1 {
		t.Errorf("pending retirements = %d, want 1", n)
	}
	t.Logf("evicting request returned in %v with checkpoint still in flight", evictLatency)

	// A read of the retiring session blocks on the retirement barrier, then
	// restores the checkpointed state.
	done := make(chan reasonResponse, 1)
	go func() {
		var rr reasonResponse
		postJSON(t, ts.URL+"/reason", `{"session":"`+ids[0]+`"}`, &rr)
		done <- rr
	}()
	select {
	case <-done:
		t.Fatal("read of a retiring session completed before its checkpoint was durable")
	case <-time.After(100 * time.Millisecond):
	}
	close(finish)
	select {
	case rr := <-done:
		if rr.Epoch != before[0].Epoch {
			t.Errorf("restored epoch = %d, want %d", rr.Epoch, before[0].Epoch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read never completed after the retirement finished")
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.WritePath.Retirements.Async == 0 {
		t.Errorf("retirement counters = %+v, want async >= 1", st.WritePath.Retirements)
	}
}

// TestSnapshotAllWaitsForRetirements: the shutdown barrier must not report
// "checkpointed for handoff" while a background retirement is still
// writing — SnapshotAll drains the queue first.
func TestSnapshotAllWaitsForRetirements(t *testing.T) {
	dir := t.TempDir()
	s, err := NewWithOptions(Options{WALDir: dir, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	retiring := make(chan string, 1)
	finish := make(chan struct{})
	s.testHookRetire = func(id string) {
		retiring <- id
		<-finish
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seedSessions(t, ts.URL, 1)
	postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, nil) // evicts
	<-retiring

	done := make(chan int, 1)
	go func() { done <- s.SnapshotAll() }()
	select {
	case <-done:
		t.Fatal("SnapshotAll returned while a retirement was still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(finish)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SnapshotAll never returned after the retirement finished")
	}
	if n := s.table.retiringNow(); n != 0 {
		t.Errorf("pending retirements after SnapshotAll = %d, want 0", n)
	}
}
