package server

// Checkpoint-layer tests: WAL compaction (checkpoint fixpoint, truncate log
// to a tail), eviction-to-snapshot (no full replay when a snapshot exists),
// snapshot-then-handoff across server instances sharing a directory,
// corrupt-snapshot fallback to full replay, and client-assigned session ids.

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/wal"
)

// writeFact commits one Own edge to the session and returns the response.
func writeFact(t *testing.T, url, session, from, to string, weight float64) factsResponse {
	t.Helper()
	var fr factsResponse
	body := fmt.Sprintf(`{"session":%q,"add":"Own(\"%s\",\"%s\",%g)."}`, session, from, to, weight)
	if resp := postJSON(t, url+"/facts", body, &fr); resp.StatusCode != http.StatusOK {
		t.Fatalf("facts %s->%s: status = %d", from, to, resp.StatusCode)
	}
	return fr
}

func sessionRead(t *testing.T, url, session string) reasonResponse {
	t.Helper()
	var rr reasonResponse
	if resp := postJSON(t, url+"/reason", fmt.Sprintf(`{"session":%q}`, session), &rr); resp.StatusCode != http.StatusOK {
		t.Fatalf("session read: status = %d", resp.StatusCode)
	}
	return rr
}

func TestCompactionCheckpointsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	ts, s := newTestServerFull(t, Options{WALDir: dir, CompactCommits: 3})
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
	for i := 0; i < 7; i++ {
		writeFact(t, ts.URL, rr.Session, fmt.Sprintf("e%d", i), fmt.Sprintf("e%d", i+1), 0.7)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.WritePath.Compactions < 2 {
		t.Errorf("compactions = %d, want >= 2 after 7 commits at threshold 3", st.WritePath.Compactions)
	}
	// The log is a tail: its header starts at the last checkpoint epoch and
	// carries fewer deltas than were committed.
	rec, err := wal.Replay(filepath.Join(dir, rr.Session+".wal"))
	if err != nil {
		t.Fatalf("replaying compacted log: %v", err)
	}
	if rec.Header.StartSeq == 0 {
		t.Error("compacted log still claims to start at epoch 0")
	}
	if n := len(rec.Deltas); n >= 7 {
		t.Errorf("compacted log holds %d deltas, want < 7", n)
	}
	h, err := snapshot.ReadHeader(filepath.Join(dir, rr.Session+".snap"))
	if err != nil {
		t.Fatalf("snapshot header: %v", err)
	}
	if h.Epoch != rec.Header.StartSeq {
		t.Errorf("snapshot epoch %d != log StartSeq %d", h.Epoch, rec.Header.StartSeq)
	}

	// Restore across eviction reproduces the state: snapshot plus short tail.
	before := sessionRead(t, ts.URL, rr.Session)
	postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, nil) // evict via MaxSessions=1? no: capacity default
	s.table.forget(rr.Session)                                                    // drop the handle without the eviction hook: simulate crash
	after := sessionRead(t, ts.URL, rr.Session)
	if after.Epoch != before.Epoch || strings.Join(after.Answers, "\n") != strings.Join(before.Answers, "\n") {
		t.Errorf("restored state differs:\nbefore %+v\nafter  %+v", before, after)
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.WritePath.SnapshotRestores == 0 {
		t.Error("restore after compaction did not use the snapshot")
	}
	if st.WritePath.TailReplays > 3 {
		t.Errorf("tail replays = %d, want <= threshold 3", st.WritePath.TailReplays)
	}
}

// TestEvictionSnapshotSkipsFullReplay is the eviction regression: evicting
// a mutated session checkpoints it, and the next request restores from the
// snapshot with zero deltas replayed — no full WAL replay.
func TestEvictionSnapshotSkipsFullReplay(t *testing.T) {
	dir := t.TempDir()
	ts, s := newTestServerFull(t, Options{WALDir: dir, MaxSessions: 1})
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
	writeFact(t, ts.URL, rr.Session, "Y", "Z", 0.7)
	writeFact(t, ts.URL, rr.Session, "Z", "W", 0.8)
	before := sessionRead(t, ts.URL, rr.Session)

	// Evict: MaxSessions=1, so opening another session pushes ours out and
	// the eviction hook checkpoints it. The checkpoint runs on the
	// background retirement queue; requests naming the session wait on the
	// retirement barrier, but this test reads the file directly, so it
	// drains the queue first.
	postJSON(t, ts.URL+"/reason", `{"app":"stress-simple","scenario":true}`, nil)
	s.table.waitRetirements()
	h, err := snapshot.ReadHeader(filepath.Join(dir, rr.Session+".snap"))
	if err != nil {
		t.Fatalf("eviction wrote no snapshot: %v", err)
	}
	if h.Epoch != before.Epoch {
		t.Errorf("eviction snapshot at epoch %d, session was at %d", h.Epoch, before.Epoch)
	}

	after := sessionRead(t, ts.URL, rr.Session)
	if after.Epoch != before.Epoch || strings.Join(after.Answers, "\n") != strings.Join(before.Answers, "\n") {
		t.Errorf("restored state differs:\nbefore %+v\nafter  %+v", before, after)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.WritePath.SnapshotRestores != 1 {
		t.Errorf("snapshot restores = %d, want 1", st.WritePath.SnapshotRestores)
	}
	if st.WritePath.TailReplays != 0 {
		t.Errorf("tail replays = %d, want 0 (snapshot covers every commit)", st.WritePath.TailReplays)
	}
}

// TestCorruptSnapshotFallsBackToFullReplay: a bit-flipped snapshot is
// rejected by its checksum and the session restores by full WAL replay —
// slower, never wrong.
func TestCorruptSnapshotFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	ts, s := newTestServerFull(t, Options{WALDir: dir})
	var rr reasonResponse
	postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
	writeFact(t, ts.URL, rr.Session, "Y", "Z", 0.7)
	before := sessionRead(t, ts.URL, rr.Session)

	// Retire through the eviction hook so a snapshot lands, then corrupt it.
	sess := s.resident(rr.Session)
	s.retire(sess)
	s.table.forget(rr.Session)
	snapPath := filepath.Join(dir, rr.Session+".snap")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("snapshot missing after retire: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	after := sessionRead(t, ts.URL, rr.Session)
	if after.Epoch != before.Epoch || strings.Join(after.Answers, "\n") != strings.Join(before.Answers, "\n") {
		t.Errorf("fallback restore differs:\nbefore %+v\nafter  %+v", before, after)
	}
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.WritePath.SnapshotRestores != 0 {
		t.Errorf("corrupt snapshot was used: snapshotRestores = %d", st.WritePath.SnapshotRestores)
	}
	if st.WritePath.Restores == 0 {
		t.Error("no restore recorded")
	}
}

// TestSnapshotHandoffAcrossServers: SnapshotAll on one server instance,
// then a second instance over the same directory restores the session from
// the snapshot — the drain half of a rolling worker restart.
func TestSnapshotHandoffAcrossServers(t *testing.T) {
	dir := t.TempDir()
	tsA, sA := newTestServerFull(t, Options{WALDir: dir})
	var rr reasonResponse
	postJSON(t, tsA.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6)."}`, &rr)
	writeFact(t, tsA.URL, rr.Session, "Y", "Z", 0.7)
	before := sessionRead(t, tsA.URL, rr.Session)
	if n := sA.SnapshotAll(); n != 1 {
		t.Fatalf("SnapshotAll wrote %d snapshots, want 1", n)
	}
	if sA.resident(rr.Session) != nil {
		t.Fatal("session still live after drain")
	}

	tsB, _ := newTestServerFull(t, Options{WALDir: dir})
	after := sessionRead(t, tsB.URL, rr.Session)
	if after.Epoch != before.Epoch || strings.Join(after.Answers, "\n") != strings.Join(before.Answers, "\n") {
		t.Errorf("handoff state differs:\nbefore %+v\nafter  %+v", before, after)
	}
	// And the handed-off session keeps committing where A left off.
	fr := writeFact(t, tsB.URL, rr.Session, "Z", "W", 0.8)
	if fr.Epoch != before.Epoch+1 {
		t.Errorf("epoch after handoff write = %d, want %d", fr.Epoch, before.Epoch+1)
	}
}

func TestAssignedSessionIDs(t *testing.T) {
	ts, _ := newTestServerFull(t, Options{WALDir: t.TempDir()})
	var rr reasonResponse
	resp := postJSON(t, ts.URL+"/reason", `{"app":"company-control","facts":"Own(\"X\",\"Y\",0.6).","assignId":"gw-00042"}`, &rr)
	if resp.StatusCode != http.StatusOK || rr.Session != "gw-00042" {
		t.Fatalf("assigned create: status %d, session %q", resp.StatusCode, rr.Session)
	}
	// The assigned session serves reads and writes like any other.
	writeFact(t, ts.URL, "gw-00042", "Y", "Z", 0.7)
	if got := sessionRead(t, ts.URL, "gw-00042"); got.Epoch != 1 {
		t.Errorf("assigned session epoch = %d, want 1", got.Epoch)
	}
	// Reusing a taken id conflicts.
	if resp := postJSON(t, ts.URL+"/reason", `{"app":"company-control","assignId":"gw-00042"}`, nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate assignId: status = %d, want 409", resp.StatusCode)
	}
	for _, bad := range []string{"s7", "s123", "has space", "semi;colon", strings.Repeat("x", 65), "ünicode"} {
		body := fmt.Sprintf(`{"app":"company-control","assignId":%q}`, bad)
		if resp := postJSON(t, ts.URL+"/reason", body, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("assignId %q: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}
