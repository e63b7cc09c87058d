package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// This file is the durable half of the write path: per-session WAL wiring
// (log-before-apply hooks for the group committer) and the session table's
// restore callback — an evicted or crash-lost session with durable state is
// rebuilt to byte-identical state the next time /facts, /explain or a
// session-read /reason names it, instead of answering 404.

// programFingerprint identifies a compiled program in WAL headers: replay
// refuses to resurrect a session against different rules.
func programFingerprint(p *ast.Program) string {
	sum := sha256.Sum256([]byte(p.String()))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// walPath is the session's log file; session ids are never reused within a
// WAL directory (nextID starts past every id found on disk).
func (s *Server) walPath(id string) string {
	return filepath.Join(s.walDir, id+".wal")
}

// scanWALDir returns the highest session number among s<N>.wal files, so a
// restarted process never reissues an id that still has state on disk.
func scanWALDir(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	max := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "s") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "s"), ".wal"))
		if err == nil && n > max {
			max = n
		}
	}
	return max
}

// newSession builds a live session around a fresh chase result. With a
// WAL directory configured the session's log is created eagerly — header
// first, durable before the session id is handed out — so read-only
// sessions survive eviction and restarts too (restore re-chases their
// logged base), not just mutated ones.
func (s *Server) newSession(id, app string, extra []ast.Atom, res *chase.Result) (*session, error) {
	sess := &session{id: id, app: app, extra: extra, result: res}
	if s.walDir != "" {
		if err := s.createWAL(sess, 0); err != nil {
			// Durability was promised (a WAL dir is configured) but is
			// unavailable: fail the session rather than silently running
			// volatile.
			return nil, fmt.Errorf("session WAL: %w", err)
		}
	}
	s.wire(sess, nil, 0)
	return sess, nil
}

// createWAL (re)creates the session's log, header durable, as a log whose
// first delta will be startSeq+1, and makes it the session's handle.
func (s *Server) createWAL(sess *session, startSeq uint64) error {
	l, err := wal.Create(s.walPath(sess.id), wal.Header{
		App:      sess.app,
		Program:  s.fingerprints[sess.app],
		Base:     sess.extra,
		StartSeq: startSeq,
	}, s.walSync)
	if err == nil {
		sess.setWAL(l)
	}
	return err
}

// wire gives a session its write path — the one place a group committer is
// built, for new and restored sessions alike: log-before-apply, abort
// records, publication of each applied batch, and the maintainer (a restored
// session brings its rebuilt one; a new session's m is nil and stands up on
// the first write with one full chase over its opening facts). startSeq is
// the last commit epoch the state already holds.
func (s *Server) wire(sess *session, m *incremental.Maintainer, startSeq uint64) {
	sess.epoch = startSeq
	sess.syncWAL = s.logSync
	sess.cmt = core.NewCommitter(core.CommitterConfig{
		Queue:        s.writeQueue,
		Window:       s.commitWindow,
		ApplyTimeout: s.timeout,
		StartSeq:     startSeq,
		Maintainer:   m,
		ApplyLock:    &sess.renderMu,
		Standup: func(ctx context.Context) (*incremental.Maintainer, error) {
			return s.pipe(sess.app).MaintainContext(ctx, sess.extra...)
		},
		OnLog:   sess.onLog,
		OnAbort: sess.onAbort,
		OnApply: s.onApply(sess),
	})
}

// logSync flushes one session log after a commit. Under the group policy
// the fsync goes through the server's cross-session SyncBatcher, so commit
// windows that close together across concurrent sessions share flush rounds
// instead of each paying a serialized fsync; otherwise (or when batching is
// off) it is a direct Log.Sync.
func (s *Server) logSync(l *wal.Log) error {
	if s.syncBatcher != nil {
		return s.syncBatcher.Sync(l)
	}
	return l.Sync()
}

// onLog appends the merged batch delta and makes it durable per policy —
// one record and (under the group policy) at most one fsync per commit,
// shared across sessions by the server's SyncBatcher, regardless of how
// many writes coalesced into it.
func (sess *session) onLog(seq uint64, add, retract []ast.Atom) error {
	l := sess.getWAL()
	if l == nil {
		return nil
	}
	if err := l.Append(wal.Delta{Seq: seq, Add: add, Retract: retract}); err != nil {
		return err
	}
	return sess.syncWAL(l)
}

// onAbort marks a logged-but-failed batch so replay skips it. Best effort:
// if the abort record cannot be written, restore-time replay discovers the
// failure by re-running the delta and skipping it when it fails again.
func (sess *session) onAbort(seq uint64) {
	l := sess.getWAL()
	if l == nil {
		return
	}
	_ = l.AppendAbort(seq)
	_ = sess.syncWAL(l)
}

// onApply publishes an applied batch: the repaired fixpoint and its commit
// epoch become the session's read state, cached explanations rendered
// against the previous epoch are removed, and the server-wide incremental
// counters advance once per batch. It runs on the session's commit leader,
// which is also where compaction triggers: the leader is quiescent between
// batches, so the checkpoint it writes is exactly the state at seq.
func (s *Server) onApply(sess *session) func(uint64, *chase.Result, incremental.UpdateStats) int {
	return func(seq uint64, res *chase.Result, stats incremental.UpdateStats) int {
		if s.testHookApply != nil {
			s.testHookApply()
		}
		sess.stateMu.Lock()
		sess.result = res
		sess.epoch = seq
		stale := sess.explKeys
		sess.explKeys = nil
		sess.stateMu.Unlock()
		invalidated := 0
		for _, key := range stale {
			if s.explanations.Remove(key) {
				invalidated++
			}
		}
		s.updates.Add(1)
		s.deltaRounds.Add(uint64(stats.DeltaRounds))
		s.overDeleted.Add(uint64(stats.OverDeleted))
		s.rederived.Add(uint64(stats.Rederived))
		s.invalidations.Add(uint64(invalidated))
		if s.walDir != "" {
			sess.deltasSinceSnap++
			if s.shouldCompact(sess) {
				if err := s.compact(sess, seq); err != nil {
					s.logf("server: compacting session %s: %v", sess.id, err)
				}
			}
		}
		return invalidated
	}
}

// restoreSession rebuilds an evicted (or crash-lost) session from its
// durable state. It is the session table's restore callback: it runs at
// most once per session at a time, outside every server-wide lock (distinct
// sessions restore in parallel), after any retirement of the session has
// finished with the files. It returns (nil, nil) when the session has no
// durable state at all: the caller answers 404.
func (s *Server) restoreSession(ctx context.Context, id string) (*session, error) {
	if s.walDir == "" {
		return nil, nil
	}
	if s.testHookRestore != nil {
		s.testHookRestore(id)
	}
	start := time.Now()
	sess, err := s.rebuild(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("restoring session %s: %w", id, err)
	}
	if sess != nil {
		s.restores.Add(1)
		d := time.Since(start)
		s.restoreNanos.Add(uint64(d))
		s.restoreHist.observe(d)
	}
	return sess, nil
}

// rebuild is one session's actual restore. It prefers the snapshot:
// deserialize the engine (byte-identical to the checkpointed state — same
// fact ids, proofs and aggregation state) and replay only the committed
// deltas past the snapshot epoch. A missing or unreadable log next to a
// good snapshot is the compaction crash window (the snapshot was durable
// before the log rewrite); the tail log is recreated empty at the snapshot
// epoch. Without a usable snapshot it falls back to a full WAL replay —
// header base plus every committed delta — unless the log was compacted
// (StartSeq > 0), in which case the prefix is gone and the restore fails
// loudly instead of rebuilding partial state.
func (s *Server) rebuild(ctx context.Context, id string) (*session, error) {
	snap, payload, snapErr := snapshot.Read(s.snapPath(id))
	rec, walErr := wal.Replay(s.walPath(id))
	fromSnap := snapErr == nil
	app, program := snap.App, snap.Program
	switch {
	case fromSnap:
	case os.IsNotExist(walErr) && os.IsNotExist(snapErr):
		return nil, nil
	case os.IsNotExist(walErr):
		return nil, fmt.Errorf("snapshot unusable (%v) and no WAL", snapErr)
	case walErr != nil:
		return nil, walErr
	case rec.Header.StartSeq > 0:
		return nil, fmt.Errorf("WAL is a tail starting at epoch %d and the snapshot it depends on is unusable (%v)",
			rec.Header.StartSeq, snapErr)
	default:
		if !os.IsNotExist(snapErr) {
			s.logf("server: session %s: snapshot unusable (%v); falling back to full WAL replay", id, snapErr)
		}
		app, program = rec.Header.App, rec.Header.Program
	}
	pipe := s.pipe(app)
	if pipe == nil {
		return nil, fmt.Errorf("unknown application %q", app)
	}
	if want := s.fingerprints[app]; program != want {
		return nil, fmt.Errorf("program fingerprint changed (durable %s, compiled %s)", program, want)
	}
	var (
		extra   []ast.Atom
		deltas  []wal.Delta
		lastSeq = snap.Epoch
	)
	if walErr == nil {
		extra = rec.Header.Base
		for _, d := range rec.Live() {
			if d.Seq > snap.Epoch {
				deltas = append(deltas, d)
			}
		}
		if l := rec.LastSeq(); l > lastSeq {
			lastSeq = l
		}
	}
	base := func() (*incremental.Maintainer, error) { return pipe.MaintainContext(ctx, extra...) }
	if fromSnap {
		base = func() (*incremental.Maintainer, error) {
			live, err := chase.RestoreLive(pipe.Program(), s.chaseOpts, payload)
			if err != nil {
				return nil, fmt.Errorf("snapshot state: %w", err)
			}
			return incremental.FromLive(live), nil
		}
	}
	m, bad, err := replayTail(ctx, base, deltas)
	if err != nil {
		return nil, err
	}
	res, err := m.Result()
	if err != nil {
		return nil, err
	}
	sess := &session{id: id, app: app, extra: extra, result: res}
	if walErr == nil {
		var log *wal.Log
		if log, err = rec.OpenAppend(s.walSync); err != nil {
			return nil, err
		}
		if bad != 0 {
			// The poisoning write of the previous life, crashed before its
			// abort record landed; mark it now so the next replay skips it.
			_ = log.AppendAbort(bad)
			_ = log.Sync()
		}
		sess.setWAL(log)
	} else {
		if !os.IsNotExist(walErr) {
			s.logf("server: session %s: WAL unreadable next to a good snapshot (%v); recreating tail log at epoch %d", id, walErr, snap.Epoch)
		}
		if err := s.createWAL(sess, snap.Epoch); err != nil {
			return nil, err
		}
	}
	if fromSnap {
		s.snapshotRestores.Add(1)
		s.tailReplays.Add(uint64(len(deltas)))
	}
	s.wire(sess, m, lastSeq)
	return sess, nil
}

// replayTail builds a maintainer with base and applies the committed deltas
// in order. The incremental engine is deterministic, so the result is
// byte-identical — same atoms, fact ids and proofs — to the state after the
// session's last acknowledged commit. A delta that fails can only be the
// final one (its failure poisoned or crashed the previous life, and nothing
// committed after it): the maintainer is built once more without it and its
// seq is returned for an abort record. A failure anywhere else, on the clean
// rebuild, or by cancellation (which says nothing about the delta) is an
// error.
func replayTail(ctx context.Context, base func() (*incremental.Maintainer, error), deltas []wal.Delta) (*incremental.Maintainer, uint64, error) {
	var bad uint64
	for {
		m, err := base()
		if err != nil {
			return nil, 0, err
		}
		failed := -1
		for i, d := range deltas {
			if _, _, err = m.UpdateContext(ctx, d.Add, d.Retract); err != nil {
				failed = i
				break
			}
		}
		switch {
		case failed < 0:
			return m, bad, nil
		case chase.IsCancellation(err):
			return nil, 0, err
		case bad != 0:
			return nil, 0, fmt.Errorf("replay: delta failed on clean rebuild: %w", err)
		case failed != len(deltas)-1:
			return nil, 0, fmt.Errorf("replay: delta %d/%d failed before the tail end: %w", failed+1, len(deltas), err)
		}
		bad, deltas = deltas[failed].Seq, deltas[:failed]
	}
}
