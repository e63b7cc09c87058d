package server

// Regression tests for the defects that sat on the seams between the old
// session tables: a /release that slipped past a restore in flight, requests
// that had resolved their session just before a capacity eviction closed
// its committer, and a restore whose deadline expired on the last WAL delta.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestReleaseWaitsOutInflightRestore: a /release naming a session whose
// restore is in flight on this worker must not answer until the restored
// session has been retired again. Answering "released 0" at once would tell
// the router the files are free while this process is about to publish a
// resident session with the WAL handle open — the two-writer window the
// release -> prewarm protocol exists to close.
func TestReleaseWaitsOutInflightRestore(t *testing.T) {
	dir := t.TempDir()
	ts1, s1 := newTestServerFull(t, Options{WALDir: dir})
	ids, before := seedSessions(t, ts1.URL, 1)
	s1.SnapshotAll()
	ts1.Close()

	s2, err := NewWithOptions(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once, open sync.Once
	s2.testHookRestore = func(string) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	openGate := func() { open.Do(func() { close(gate) }) }
	defer openGate() // a failing assertion must not leave the restore parked under ts2.Close

	readDone := make(chan reasonResponse, 1)
	go func() {
		var rr reasonResponse
		postJSON(t, ts2.URL+"/reason", `{"session":"`+ids[0]+`"}`, &rr)
		readDone <- rr
	}()
	<-entered // the restore is in flight

	relDone := make(chan releaseResponse, 1)
	go func() {
		var rel releaseResponse
		postJSON(t, ts2.URL+"/release", `{"sessions":["`+ids[0]+`"]}`, &rel)
		relDone <- rel
	}()
	select {
	case rel := <-relDone:
		t.Fatalf("/release answered %+v while the session's restore was still in flight", rel)
	case <-time.After(100 * time.Millisecond):
	}

	openGate()
	select {
	case rel := <-relDone:
		if rel.Released != 1 {
			t.Errorf("released = %d, want 1: the restored session had to be retired", rel.Released)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/release never answered after the restore finished")
	}
	if rr := <-readDone; rr.Epoch != before[0].Epoch {
		t.Errorf("read that led the restore: epoch %d, want %d", rr.Epoch, before[0].Epoch)
	}
	if s2.resident(ids[0]) != nil {
		t.Error("session resident (WAL handle open) after /release answered")
	}
}

// TestEvictionUnderInflightRequests: a queued /facts write and an ?epoch=
// read that both resolved their session before a capacity eviction closed
// its committer must be served by the restored session, not answered 422
// and 409 — the session is fully restorable and neither request was at
// fault. The commit leader is pinned mid-publication so both requests are
// provably inside the old committer when the eviction's retirement closes
// it. Whether the stopping leader fails the queued write or still commits
// it is the leader's select, so a few rounds make the resubmission run.
func TestEvictionUnderInflightRequests(t *testing.T) {
	for round := 0; round < 4; round++ {
		s, err := NewWithOptions(Options{WALDir: t.TempDir(), MaxSessions: 1})
		if err != nil {
			t.Fatal(err)
		}
		applying := make(chan struct{})
		unpin := make(chan struct{})
		var once sync.Once
		s.testHookApply = func() {
			once.Do(func() {
				close(applying)
				<-unpin
			})
		}
		ts := httptest.NewServer(s.Handler())

		var rr reasonResponse
		postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
		sess := s.resident(rr.Session)
		write := func(from, to string) chan int {
			code := make(chan int, 1)
			go func() {
				_, c := postBody(t, ts.URL+"/facts",
					fmt.Sprintf(`{"session":%q,"add":"Own(\"%s\",\"%s\",0.7)."}`, rr.Session, from, to))
				code <- c
			}()
			return code
		}
		first := write("Y", "Z")
		<-applying // epoch 1 is logged; its publication is pinned
		second := write("Z", "W")
		waitFor(t, func() bool { return sess.cmt.Pending() == 1 }) // queued behind the pinned batch
		read := make(chan int, 1)
		var got reasonResponse
		go func() {
			read <- postJSON(t, ts.URL+"/reason?epoch=1", `{"session":"`+rr.Session+`"}`, &got).StatusCode
		}()
		var st statsResponse
		waitFor(t, func() bool { getJSON(t, ts.URL+"/stats", &st); return st.Requests.Inflight == 3 })

		// Evict the session and wait until its retirement has closed the
		// committer under all three requests.
		postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, nil)
		err = sess.cmt.WaitApplied(context.Background(), 1)
		close(unpin)
		if !errors.Is(err, core.ErrCommitterClosed) {
			t.Fatalf("old committer: WaitApplied = %v, want closed by the eviction", err)
		}

		if code := <-first; code != http.StatusOK {
			t.Errorf("round %d: pinned write: status %d, want 200", round, code)
		}
		if code := <-second; code != http.StatusOK {
			t.Errorf("round %d: write queued across the eviction: status %d, want 200 via the restored session", round, code)
		}
		if code := <-read; code != http.StatusOK || got.Epoch < 1 {
			t.Errorf("round %d: ?epoch=1 read across the eviction: status %d epoch %d, want 200 at epoch >= 1", round, code, got.Epoch)
		}
		after := sessionRead(t, ts.URL, rr.Session)
		if after.Epoch != 2 || !strings.Contains(strings.Join(after.Answers, "\n"), "Control(X, W)") {
			t.Errorf("round %d: after both writes: epoch %d answers %v, want epoch 2 with Control(X, W)", round, after.Epoch, after.Answers)
		}
		// Never-issued epochs still conflict.
		if resp := postJSON(t, ts.URL+"/reason?epoch=99", `{"session":"`+rr.Session+`"}`, nil); resp.StatusCode != http.StatusConflict {
			t.Errorf("round %d: unissued epoch: status %d, want 409", round, resp.StatusCode)
		}
		ts.Close()
		s.Close()
	}
}

// TestRestoreDeadlineDoesNotAbortTail: a restore whose context dies while
// the last WAL delta is replaying must fail, not conclude that the delta
// poisoned the previous life, mark it aborted and drop an acknowledged
// commit. The snapshot base rebuilds without a context, so before the
// cancellation check this silently lost the tail write.
func TestRestoreDeadlineDoesNotAbortTail(t *testing.T) {
	dir := t.TempDir()
	ts, s := newTestServerFull(t, Options{WALDir: dir, CompactCommits: 2})
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
	writeFact(t, ts.URL, rr.Session, "Y", "Z", 0.7)
	writeFact(t, ts.URL, rr.Session, "Z", "W", 0.8) // checkpoint at epoch 2
	writeFact(t, ts.URL, rr.Session, "W", "V", 0.9) // the tail: one delta past the snapshot
	before := sessionRead(t, ts.URL, rr.Session)
	s.table.forget(rr.Session) // crash: nothing checkpoints the tail

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if sess, err := s.table.acquire(ctx, rr.Session); err == nil {
		t.Fatalf("restore under a dead context returned %v, want an error", sess)
	}
	after := sessionRead(t, ts.URL, rr.Session)
	if after.Epoch != before.Epoch || after.Facts != before.Facts ||
		strings.Join(after.Answers, "\n") != strings.Join(before.Answers, "\n") {
		t.Errorf("the canceled restore cost an acknowledged commit:\nbefore %+v\nafter  %+v", before, after)
	}
}
