package server

// Tests for the rebalance control plane: /sessions lists residents,
// /release checkpoints and quiesces sessions for handoff, /prewarm
// restores them ahead of first touch — the worker half of the router's
// proactive migration protocol.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestRebalanceControlPlane(t *testing.T) {
	dir := t.TempDir()
	ts, s := newTestServerFull(t, Options{WALDir: dir})
	ids, before := seedSessions(t, ts.URL, 2)

	// GET /sessions lists both residents.
	var list sessionListResponse
	getJSON(t, ts.URL+"/sessions", &list)
	sort.Strings(list.Sessions)
	want := append([]string(nil), ids...)
	sort.Strings(want)
	if len(list.Sessions) != 2 || list.Sessions[0] != want[0] || list.Sessions[1] != want[1] {
		t.Fatalf("/sessions = %v, want %v", list.Sessions, want)
	}

	// POST /release checkpoints both and drops them from the table; their
	// snapshots are on disk when the response arrives.
	var rel releaseResponse
	if resp := postJSON(t, ts.URL+"/release",
		`{"sessions":["`+ids[0]+`","`+ids[1]+`"]}`, &rel); resp.StatusCode != http.StatusOK {
		t.Fatalf("/release status = %d", resp.StatusCode)
	}
	if rel.Released != 2 {
		t.Errorf("released = %d, want 2", rel.Released)
	}
	for _, id := range ids {
		if s.resident(id) != nil {
			t.Errorf("session %s still resident after release", id)
		}
		if _, err := os.Stat(s.snapPath(id)); err != nil {
			t.Errorf("session %s has no snapshot after release: %v", id, err)
		}
	}
	// Releasing ids that are gone (or never existed) is idempotent.
	if resp := postJSON(t, ts.URL+"/release",
		`{"sessions":["`+ids[0]+`","no-such"]}`, &rel); resp.StatusCode != http.StatusOK || rel.Released != 0 {
		t.Errorf("idempotent release: status %d released %d, want 200/0", resp.StatusCode, rel.Released)
	}

	// POST /prewarm restores both; an id with no durable state counts as
	// failed without failing the batch.
	var pre prewarmResponse
	if resp := postJSON(t, ts.URL+"/prewarm",
		`{"sessions":["`+ids[0]+`","`+ids[1]+`","no-such"]}`, &pre); resp.StatusCode != http.StatusOK {
		t.Fatalf("/prewarm status = %d", resp.StatusCode)
	}
	if pre.Restored != 2 || pre.Failed != 1 {
		t.Errorf("prewarm = %+v, want restored 2 failed 1", pre)
	}
	for i, id := range ids {
		if s.resident(id) == nil {
			t.Errorf("session %s not resident after prewarm", id)
			continue
		}
		var rr reasonResponse
		postJSON(t, ts.URL+"/reason", `{"session":"`+id+`"}`, &rr)
		if rr.Epoch != before[i].Epoch || rr.Facts != before[i].Facts {
			t.Errorf("session %s after release+prewarm: %+v, want %+v", id, rr, before[i])
		}
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.WritePath.Released != 2 || st.WritePath.Prewarmed != 2 {
		t.Errorf("stats released/prewarmed = %d/%d, want 2/2", st.WritePath.Released, st.WritePath.Prewarmed)
	}
}

// TestRebalanceRequiresDurability: without a WAL directory there is nothing
// to hand off or prewarm from — both mutating endpoints answer 422.
func TestRebalanceRequiresDurability(t *testing.T) {
	ts, _ := newTestServerFull(t, Options{})
	for _, path := range []string{"/release", "/prewarm"} {
		if resp := postJSON(t, ts.URL+path, `{"sessions":["x"]}`, nil); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s on a volatile server: status %d, want 422", path, resp.StatusCode)
		}
	}
}

// TestReleaseWaitsOutBackgroundRetirement: a /release naming a session
// already in a background retirement must not answer until that retirement
// finishes — the release promise ("durable, handle closed") has to hold.
func TestReleaseWaitsOutBackgroundRetirement(t *testing.T) {
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

	ids, _ := seedSessions(t, ts.URL, 1)
	postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, nil) // evicts
	<-retiring

	done := make(chan struct{})
	go func() {
		postJSON(t, ts.URL+"/release", `{"sessions":["`+ids[0]+`"]}`, nil)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("/release answered while the named session's retirement was still writing")
	case <-time.After(100 * time.Millisecond):
	}
	close(finish)
	<-done
	if _, err := os.Stat(s.snapPath(ids[0])); err != nil {
		t.Errorf("released session has no snapshot: %v", err)
	}
}

// TestRestoreWaitsOutReleaseRetirement: a restore racing a /release of the
// same session must block until the release-driven retirement has closed
// the WAL handle — under the old code /release retired without registering
// in the retiring table, so the restore skipped the barrier and could
// reopen the WAL while the retire was still writing.
func TestRestoreWaitsOutReleaseRetirement(t *testing.T) {
	dir := t.TempDir()
	s, err := NewWithOptions(Options{WALDir: dir})
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

	relDone := make(chan releaseResponse, 1)
	go func() {
		var rel releaseResponse
		postJSON(t, ts.URL+"/release", `{"sessions":["`+ids[0]+`"]}`, &rel)
		relDone <- rel
	}()
	select {
	case id := <-retiring:
		if id != ids[0] {
			t.Fatalf("retiring %q, want %q", id, ids[0])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("/release never started the session's retirement")
	}

	// While the release-driven retirement is parked on the hook, a read of
	// the session must wait — not restore over the in-flight retire.
	readDone := make(chan reasonResponse, 1)
	go func() {
		var rr reasonResponse
		postJSON(t, ts.URL+"/reason", `{"session":"`+ids[0]+`"}`, &rr)
		readDone <- rr
	}()
	select {
	case <-readDone:
		t.Fatal("restore completed while the release-driven retirement was still writing")
	case <-relDone:
		t.Fatal("/release answered while its retirement was still writing")
	case <-time.After(100 * time.Millisecond):
	}

	close(finish)
	select {
	case rr := <-readDone:
		if rr.Epoch != before[0].Epoch {
			t.Errorf("restored epoch = %d, want %d", rr.Epoch, before[0].Epoch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read never completed after the retirement finished")
	}
	select {
	case rel := <-relDone:
		if rel.Released != 1 {
			t.Errorf("released = %d, want 1", rel.Released)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/release never answered after the retirement finished")
	}
}

// TestReleaseAbortsOnCanceledWait: a /release whose context dies while a
// named session's retirement is still running must answer non-200 — a 200
// would promise the files are final and let the router prewarm the session
// on another worker while this one still holds the WAL handle open.
func TestReleaseAbortsOnCanceledWait(t *testing.T) {
	dir := t.TempDir()
	s, err := NewWithOptions(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	retiring := make(chan string, 1)
	finish := make(chan struct{})
	s.testHookRetire = func(id string) {
		retiring <- id
		<-finish
	}
	// Unpark the retirement and drain it before the temp dir is cleaned up.
	defer func() {
		close(finish)
		s.table.waitRetirements()
	}()
	handler := s.Handler()

	ts := httptest.NewServer(handler)
	defer ts.Close()
	ids, _ := seedSessions(t, ts.URL, 1)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/release",
		strings.NewReader(`{"sessions":["`+ids[0]+`"]}`)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		handler.ServeHTTP(rec, req)
		close(served)
	}()
	<-retiring // the release-driven retirement is parked
	cancel()   // the request dies mid-wait
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("/release never answered after its context was canceled")
	}
	if rec.Code == http.StatusOK {
		t.Fatalf("/release answered 200 with its retirement still running; body: %s", rec.Body.String())
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/release status = %d, want 503", rec.Code)
	}
}
