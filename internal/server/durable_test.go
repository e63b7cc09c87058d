package server

// Durability tests: transparent WAL restore of evicted sessions, async
// writes with epoch tokens on the read endpoints, and the kill-and-restart
// matrix — a subprocess hammered by concurrent writers is SIGKILLed
// mid-burst and a fresh server over the same WAL directory must restore
// every acknowledged write, byte-identical to the sequential oracle.

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/incremental"
	"repro/internal/term"
	"repro/internal/wal"
)

func TestSessionRestoreAfterEviction(t *testing.T) {
	dir := t.TempDir()
	ts, s := newTestServerFull(t, Options{WALDir: dir, MaxSessions: 1})
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
	var fr factsResponse
	if resp := postJSON(t, ts.URL+"/facts",
		`{"session":"`+rr.Session+`","add":"Own(\"Y\",\"Z\",0.7)."}`, &fr); resp.StatusCode != http.StatusOK {
		t.Fatalf("facts status = %d", resp.StatusCode)
	}
	var before reasonResponse
	postJSON(t, ts.URL+"/reason", `{"session":"`+rr.Session+`"}`, &before)

	evict := func() {
		t.Helper()
		if resp := postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("evicting session open failed")
		}
		if s.resident(rr.Session) != nil {
			t.Fatal("session survived eviction")
		}
	}

	// /explain against the evicted session restores it transparently.
	evict()
	if _, code := getBody(t, ts.URL+"/explain?session="+rr.Session+`&query=Control(%22X%22,%22Z%22)`); code != http.StatusOK {
		t.Fatalf("explain after eviction: status = %d, want 200 via restore", code)
	}
	var after reasonResponse
	postJSON(t, ts.URL+"/reason", `{"session":"`+rr.Session+`"}`, &after)
	if after.Epoch != before.Epoch || after.Facts != before.Facts ||
		strings.Join(after.Answers, "\n") != strings.Join(before.Answers, "\n") {
		t.Errorf("restored state differs:\nbefore %+v\nafter  %+v", before, after)
	}

	// /facts against the evicted session restores it and keeps committing
	// where the first life left off.
	evict()
	if resp := postJSON(t, ts.URL+"/facts",
		`{"session":"`+rr.Session+`","add":"Own(\"Z\",\"W\",0.8)."}`, &fr); resp.StatusCode != http.StatusOK {
		t.Fatalf("facts after eviction: status = %d, want 200 via restore", resp.StatusCode)
	}
	if fr.Epoch != before.Epoch+1 {
		t.Errorf("epoch after restore+write = %d, want %d", fr.Epoch, before.Epoch+1)
	}
	found := false
	for _, a := range fr.Answers {
		if a == "Control(X, W)" {
			found = true
		}
	}
	if !found {
		t.Errorf("write after restore lost the chain: %v", fr.Answers)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.WritePath.Restores < 2 {
		t.Errorf("/stats restores = %d, want >= 2", st.WritePath.Restores)
	}
	if st.WritePath.WAL.Appends == 0 || st.WritePath.WAL.Replays == 0 {
		t.Errorf("/stats WAL counters = %+v", st.WritePath.WAL)
	}
}

// TestReadOnlySessionRestored pins the eager-WAL boundary: a session's log
// (header with the opening base facts) is created when the session opens,
// not on its first write, so even a session that never committed anything
// survives eviction — its restore re-chases the logged base. (Before the
// serving tier this answered 404; routed deployments made every session's
// durability non-negotiable.)
func TestReadOnlySessionRestored(t *testing.T) {
	ts, _ := newTestServerFull(t, Options{WALDir: t.TempDir(), MaxSessions: 1})
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
	postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, nil) // evicts
	if _, code := getBody(t, ts.URL+"/explain?session="+rr.Session+`&query=Control(%22X%22,%22Y%22)`); code != http.StatusOK {
		t.Errorf("read-only evicted session: status = %d, want 200 via restore", code)
	}
	// Without a WAL directory the pre-durability behavior stands: 404.
	tsVol, _ := newTestServerFull(t, Options{MaxSessions: 1})
	postJSON(t, tsVol.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
	postJSON(t, tsVol.URL+"/reason", `{"app":"stress-simple","scenario":true}`, nil) // evicts
	if _, code := getBody(t, tsVol.URL+"/explain?session="+rr.Session+`&query=Control(%22X%22,%22Y%22)`); code != http.StatusNotFound {
		t.Errorf("volatile evicted session: status = %d, want 404", code)
	}
}

func TestAsyncWriteAndEpochReads(t *testing.T) {
	ts, _ := newTestServerFull(t, Options{WALDir: t.TempDir()})
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)

	var ar asyncFactsResponse
	resp := postJSON(t, ts.URL+"/facts",
		`{"session":"`+rr.Session+`","add":"Own(\"Y\",\"Z\",0.7).","async":true}`, &ar)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async write: status = %d, want 202", resp.StatusCode)
	}
	if ar.Epoch == 0 {
		t.Fatalf("async write carried no epoch: %+v", ar)
	}

	// A session read at the returned epoch observes the write.
	var sr reasonResponse
	resp = postJSON(t, ts.URL+"/reason",
		fmt.Sprintf(`{"session":%q,"epoch":%d}`, rr.Session, ar.Epoch), &sr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session read at epoch: status = %d", resp.StatusCode)
	}
	if sr.Epoch < ar.Epoch {
		t.Errorf("session read epoch = %d, want >= %d", sr.Epoch, ar.Epoch)
	}
	found := false
	for _, a := range sr.Answers {
		if a == "Control(X, Z)" {
			found = true
		}
	}
	if !found {
		t.Errorf("epoch read does not observe the async write: %v", sr.Answers)
	}

	// /explain honors ?epoch= the same way.
	if _, code := getBody(t, ts.URL+"/explain?session="+rr.Session+
		fmt.Sprintf(`&query=Control(%%22X%%22,%%22Z%%22)&epoch=%d`, ar.Epoch)); code != http.StatusOK {
		t.Errorf("explain at epoch: status = %d", code)
	}

	// Epochs that were never issued answer 409, on both read endpoints.
	if _, code := postBody(t, ts.URL+"/reason",
		fmt.Sprintf(`{"session":%q,"epoch":%d}`, rr.Session, ar.Epoch+100)); code != http.StatusConflict {
		t.Errorf("unissued epoch on /reason: status = %d, want 409", code)
	}
	if _, code := getBody(t, ts.URL+"/explain?session="+rr.Session+
		fmt.Sprintf(`&query=Control(%%22X%%22,%%22Z%%22)&epoch=%d`, ar.Epoch+100)); code != http.StatusConflict {
		t.Errorf("unissued epoch on /explain: status = %d, want 409", code)
	}

	// An epoch without a session to wait on is a request error.
	if _, code := postBody(t, ts.URL+"/reason", `{"app":"company-control","epoch":1}`); code != http.StatusBadRequest {
		t.Errorf("epoch without session: status = %d, want 400", code)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.WritePath.Commit.Async == 0 {
		t.Errorf("/stats commit counters = %+v", st.WritePath.Commit)
	}
}

// storeDump renders a maintainer's entire fact store — every fact id, atom,
// extensional flag and tombstone — so two stores can be compared for byte
// identity, not just answer-set equality.
func storeDump(t testing.TB, m *incremental.Maintainer) string {
	t.Helper()
	res, err := m.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var b strings.Builder
	st := res.Store
	for id := database.FactID(0); int(id) < st.Len(); id++ {
		f := st.Get(id)
		fmt.Fprintf(&b, "%d %s ext=%v dead=%v\n", id, f.Atom.String(), f.Extensional, st.Retracted(id))
	}
	return b.String()
}

// TestKillAndRestartRecovery is the crash-recovery acceptance test: a child
// process serving a session under a concurrent write burst is SIGKILLed
// mid-burst; a fresh server over the same WAL directory must restore the
// session with every acknowledged write present and a fact store
// byte-identical to replaying the log's committed deltas sequentially.
func TestKillAndRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestWALCrashWorker$")
	cmd.Env = append(os.Environ(), "WAL_CRASH_WORKER=1", "WAL_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Collect the session id and acknowledged writes until the burst is
	// well underway, then SIGKILL mid-flight.
	type ack struct{ w, j int }
	var (
		session string
		acks    []ack
	)
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "session "):
			session = strings.TrimPrefix(line, "session ")
		case strings.HasPrefix(line, "acked "):
			var a ack
			if _, err := fmt.Sscanf(line, "acked %d %d", &a.w, &a.j); err == nil {
				acks = append(acks, a)
			}
		}
		if session != "" && len(acks) >= 32 {
			break
		}
	}
	if session == "" {
		t.Fatalf("worker never reported a session (scan err %v)", scanner.Err())
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	// Acks already in the pipe when the kill landed are acknowledged writes
	// too: their clients saw 200 before the crash.
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "acked ") {
			var a ack
			if _, err := fmt.Sscanf(line, "acked %d %d", &a.w, &a.j); err == nil {
				acks = append(acks, a)
			}
		}
	}
	_ = cmd.Wait()

	// A fresh server over the same WAL directory restores the session on
	// first touch.
	s2, err := NewWithOptions(Options{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var rr reasonResponse
	resp := postJSON(t, ts2.URL+"/reason", `{"session":"`+session+`"}`, &rr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session read after restart: status = %d", resp.StatusCode)
	}
	sess := s2.resident(session)
	if sess == nil {
		t.Fatal("session not in table after restore")
	}
	m := sess.cmt.Maintainer()
	if m == nil {
		t.Fatal("restored session has no maintainer")
	}

	// Every acknowledged write is present as a base fact.
	for _, a := range acks {
		atom := ast.NewAtom("Own",
			term.Str(fmt.Sprintf("w%d", a.w)), term.Str(fmt.Sprintf("n%d", a.j)), term.Float(0.9))
		if present, base := m.Resolve(atom); !present || !base {
			t.Errorf("acknowledged write %v lost in the crash (present=%v base=%v)", atom, present, base)
		}
	}

	// The restored store is byte-identical to the sequential oracle: the
	// log's committed deltas applied one by one in commit order.
	rec, err := wal.Replay(filepath.Join(dir, session+".wal"))
	if err != nil {
		t.Fatalf("oracle replay: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	oracle, err := s2.pipe(rec.Header.App).MaintainContext(ctx, rec.Header.Base...)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rec.Live() {
		if _, _, err := oracle.UpdateContext(ctx, d.Add, d.Retract); err != nil {
			t.Fatalf("oracle delta %d: %v", d.Seq, err)
		}
	}
	if got, want := storeDump(t, m), storeDump(t, oracle); got != want {
		t.Errorf("restored store differs from sequential oracle:\n--- restored ---\n%s--- oracle ---\n%s", got, want)
	}
	if rr.Epoch != rec.LastSeq() {
		t.Errorf("restored epoch = %d, want last logged seq %d", rr.Epoch, rec.LastSeq())
	}
}

// TestWALCrashWorker is the subprocess body of TestKillAndRestartRecovery:
// it opens a durable session, hammers it with concurrent writers, reports
// every acknowledged write on stdout, and runs until it is killed.
func TestWALCrashWorker(t *testing.T) {
	if os.Getenv("WAL_CRASH_WORKER") == "" {
		t.Skip("subprocess helper, driven by TestKillAndRestartRecovery")
	}
	dir := os.Getenv("WAL_CRASH_DIR")
	s, err := NewWithOptions(Options{WALDir: dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ts := httptest.NewServer(s.Handler())
	var rr reasonResponse
	if resp := postJSON(t, ts.URL+"/reason",
		`{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr); resp.StatusCode != http.StatusOK {
		fmt.Fprintln(os.Stderr, "open session failed:", resp.StatusCode)
		os.Exit(1)
	}
	fmt.Printf("session %s\n", rr.Session)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for j := 0; ; j++ {
				body := fmt.Sprintf(`{"session":%q,"add":"Own(\"w%d\",\"n%d\",0.9)."}`, rr.Session, w, j)
				resp, err := http.Post(ts.URL+"/facts", "application/json", strings.NewReader(body))
				if err != nil {
					return
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					fmt.Printf("acked %d %d\n", w, j)
				}
			}
		}(w)
	}
	select {} // run until SIGKILLed
}
