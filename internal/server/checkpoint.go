package server

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/snapshot"
)

// This file is the checkpoint half of the durable write path: serializing a
// session's live engine to its snapshot file (internal/snapshot over
// chase.Live.EncodeState) and using those snapshots as WAL checkpoints —
// compaction truncates a session's log to a tail once the fixpoint is
// durable, and retirement (eviction, release, drain) checkpoints sessions so
// restore (durable.go) loads the snapshot plus a short tail instead of
// re-running every committed delta.

// snapPath is the session's snapshot file, next to its WAL.
func (s *Server) snapPath(id string) string {
	return filepath.Join(s.walDir, id+".snap")
}

// shouldCompact reports whether the session's WAL has outgrown a threshold.
// Runs on the session's commit leader.
func (s *Server) shouldCompact(sess *session) bool {
	if s.compactCommits > 0 && sess.deltasSinceSnap >= s.compactCommits {
		return true
	}
	if s.compactBytes > 0 {
		if fi, err := os.Stat(s.walPath(sess.id)); err == nil && fi.Size() >= s.compactBytes {
			return true
		}
	}
	return false
}

// writeCheckpoint serializes the session's maintainer to its snapshot file
// as the state at commit epoch — the one place a snapshot is written. The
// caller guarantees quiescence: nothing mutates the maintainer and epoch is
// exactly what it holds. A read-only session (no maintainer ever stood up)
// has nothing to serialize, its WAL header alone restores it: false, nil. A
// poisoned maintainer is an error: partial repairs are never checkpointed.
func (s *Server) writeCheckpoint(sess *session, epoch uint64) (bool, error) {
	m := sess.cmt.Maintainer()
	if m == nil {
		return false, nil
	}
	payload, err := m.EncodeState()
	if err != nil {
		return false, err
	}
	h := snapshot.Header{App: sess.app, Program: s.fingerprints[sess.app], Epoch: epoch}
	if err := snapshot.Write(s.snapPath(sess.id), h, payload); err != nil {
		return false, err
	}
	s.snapshotWrites.Add(1)
	return true, nil
}

// compact checkpoints the session at commit epoch seq and truncates its WAL
// to a tail. It runs on the session's commit leader between batches, so the
// maintainer holds exactly the state at seq. The ordering is crash-safe:
// the snapshot is durable before the log is touched, so a crash leaves
// either the old log (restore replays only its deltas past the snapshot
// epoch) or the truncated one (restore = snapshot + empty tail); a crash
// inside the log rewrite itself leaves an unreadable log, which restore
// repairs from the snapshot by recreating the tail log.
func (s *Server) compact(sess *session, seq uint64) error {
	if wrote, err := s.writeCheckpoint(sess, seq); err != nil || !wrote {
		return err
	}
	old := sess.getWAL()
	if err := s.createWAL(sess, seq); err != nil {
		return fmt.Errorf("recreating WAL after checkpoint: %w", err)
	}
	if old != nil {
		_ = old.Close()
	}
	sess.deltasSinceSnap = 0
	s.compactions.Add(1)
	return nil
}

// retire is the session table's retire callback, the one way a session
// leaves residency (capacity eviction, POST /release, drain): the committer
// drains and stops — so Applied() is exact and nothing mutates the
// maintainer — the fixpoint is checkpointed unless the snapshot on disk is
// already current (re-retiring an unmodified restored session is free), and
// the WAL handle is closed. The files stay: they are what restore reads.
func (s *Server) retire(sess *session) {
	if s.testHookRetire != nil {
		s.testHookRetire(sess.id)
	}
	sess.cmt.CloseWait()
	if s.walDir == "" {
		return
	}
	epoch := sess.cmt.Applied()
	if h, err := snapshot.ReadHeader(s.snapPath(sess.id)); err != nil || h.Epoch < epoch {
		if _, err := s.writeCheckpoint(sess, epoch); err != nil {
			s.logf("server: session %s: retiring without a checkpoint: %v", sess.id, err)
		}
	}
	if l := sess.getWAL(); l != nil {
		_ = l.Close()
	}
}

// SnapshotAll checkpoints every live session and releases it — the
// snapshot-then-handoff half of a graceful drain. It closes the session
// table: restores and retirements in flight are waited out (the handoff
// covers sessions evicted moments before the drain) and nothing becomes
// resident afterwards, so when it returns another worker sharing the
// directory can restore every session from its snapshot plus an empty tail.
// Returns the number of snapshots written while draining (sessions already
// current on disk are not rewritten). Safe to call more than once.
func (s *Server) SnapshotAll() (written int) {
	before := s.snapshotWrites.Load()
	s.table.drain()
	return int(s.snapshotWrites.Load() - before)
}

// Close quiesces the server for shutdown; see SnapshotAll.
func (s *Server) Close() { s.SnapshotAll() }
