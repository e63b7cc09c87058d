package figures

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/term"
	"repro/internal/wal"
)

// WritePoint is one concurrency level's measurement of sustained write
// throughput into a live session: serialized single-update application
// (one WAL append, one fsync, one incremental repair per write) against
// the group committer coalescing concurrent writes into logged batches.
type WritePoint struct {
	// Workload names the measured instance.
	Workload string `json:"workload"`
	// App is the application registry name the workload runs on.
	App string `json:"app"`
	// Writers is the number of concurrent writer goroutines.
	Writers int `json:"writers"`
	// Updates is the total number of writes each mode applied.
	Updates int `json:"updates"`
	// SerializedSeconds is the wall time of the serialized baseline;
	// SerializedPerSec its throughput in updates per second.
	SerializedSeconds float64 `json:"serializedSeconds"`
	SerializedPerSec  float64 `json:"serializedPerSec"`
	// GroupSeconds is the wall time under group commit; GroupPerSec its
	// throughput in updates per second.
	GroupSeconds float64 `json:"groupSeconds"`
	GroupPerSec  float64 `json:"groupPerSec"`
	// Speedup is SerializedSeconds / GroupSeconds.
	Speedup float64 `json:"speedup"`
	// Commits is how many batches group commit applied for Updates writes;
	// MeanBatch is Updates/Commits and MaxBatch the largest batch.
	Commits   int     `json:"commits"`
	MeanBatch float64 `json:"meanBatch"`
	MaxBatch  int     `json:"maxBatch"`
}

// CrossSyncPoint is the cross-session fsync-batching measurement: S
// concurrent sessions, each with its own WAL and group committer, flushing
// independently (every commit window pays its own fsync from its own
// goroutine) versus through one process-wide SyncBatcher (commit windows
// that close together are flushed by a single leader per round). The
// GroupWindows/BatchedSyncs/SyncsSaved columns are the wal.GlobalStats
// deltas of the batched run — the same counters /stats reports on a live
// server.
type CrossSyncPoint struct {
	Workload string `json:"workload"`
	App      string `json:"app"`
	// Sessions is the number of concurrent sessions (one WAL each);
	// WritersPerSession concurrent writers feed each session's committer.
	Sessions          int `json:"sessions"`
	WritersPerSession int `json:"writersPerSession"`
	// Updates is the total write count across all sessions, applied
	// identically in both modes.
	Updates int `json:"updates"`
	// IndependentSeconds is wall time with per-session fsyncs (before);
	// BatchedSeconds with the shared SyncBatcher (after).
	IndependentSeconds float64 `json:"independentSeconds"`
	IndependentPerSec  float64 `json:"independentPerSec"`
	BatchedSeconds     float64 `json:"batchedSeconds"`
	BatchedPerSec      float64 `json:"batchedPerSec"`
	// Speedup is IndependentSeconds / BatchedSeconds.
	Speedup float64 `json:"speedup"`
	// GroupWindows, BatchedSyncs and SyncsSaved are the batcher's counter
	// deltas over the batched run.
	GroupWindows uint64 `json:"groupWindows"`
	BatchedSyncs uint64 `json:"batchedSyncs"`
	SyncsSaved   uint64 `json:"syncsSaved"`
}

// WriteThroughput measures sustained concurrent-writer throughput on a
// control-chain session, with full durability in both modes: every commit
// is WAL-logged and fsynced before it is applied. The serialized baseline
// pays one append, one fsync and one incremental repair per write; the
// group committer pays them once per coalesced batch, so the fixed cost of
// a semi-naive repair pass and a disk flush is amortized across every
// writer that arrived while the previous batch was applying. The
// cross-session rows then hold the per-session group committer fixed and
// toggle the process-wide fsync batcher.
func WriteThroughput() (string, []WritePoint, []CrossSyncPoint, error) {
	return writeThroughput(30, 50, []int{4, 16})
}

func writeThroughput(chainSteps, updatesPerWriter int, writerCounts []int) (string, []WritePoint, []CrossSyncPoint, error) {
	sc := synth.ControlChain(chainSteps, 7)
	app, err := apps.ByName(sc.App)
	if err != nil {
		return "", nil, nil, err
	}
	pipe, err := app.Pipeline(core.Config{})
	if err != nil {
		return "", nil, nil, fmt.Errorf("write: %w", err)
	}
	dir, err := os.MkdirTemp("", "bench-write-wal-")
	if err != nil {
		return "", nil, nil, err
	}
	defer os.RemoveAll(dir)

	var points []WritePoint
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %8s %8s %12s %12s %8s %10s %9s\n",
		"workload", "writers", "updates", "serial up/s", "group up/s", "speedup", "mean batch", "max batch")
	for _, writers := range writerCounts {
		updates := writers * updatesPerWriter

		serial, err := runSerializedWriters(pipe, sc, dir, writers, updatesPerWriter)
		if err != nil {
			return "", nil, nil, fmt.Errorf("write: serialized x%d: %w", writers, err)
		}
		group, commits, maxBatch, err := runGroupWriters(pipe, sc, dir, writers, updatesPerWriter)
		if err != nil {
			return "", nil, nil, fmt.Errorf("write: group x%d: %w", writers, err)
		}

		pt := WritePoint{
			Workload:          fmt.Sprintf("control-chain-%d", chainSteps),
			App:               sc.App,
			Writers:           writers,
			Updates:           updates,
			SerializedSeconds: serial.Seconds(),
			SerializedPerSec:  float64(updates) / serial.Seconds(),
			GroupSeconds:      group.Seconds(),
			GroupPerSec:       float64(updates) / group.Seconds(),
			Speedup:           serial.Seconds() / group.Seconds(),
			Commits:           commits,
			MeanBatch:         float64(updates) / float64(commits),
			MaxBatch:          maxBatch,
		}
		points = append(points, pt)
		fmt.Fprintf(&sb, "%-18s %8d %8d %12.0f %12.0f %7.1fx %10.1f %9d\n",
			pt.Workload, pt.Writers, pt.Updates, pt.SerializedPerSec, pt.GroupPerSec,
			pt.Speedup, pt.MeanBatch, pt.MaxBatch)
	}

	// Cross-session rows: the per-session group committer stays on in both
	// modes; only the process-wide fsync batcher toggles.
	var cross []CrossSyncPoint
	fmt.Fprintf(&sb, "\n%-18s %9s %8s %8s %12s %12s %8s %8s %7s\n",
		"workload", "sessions", "writers", "updates", "indep up/s", "batch up/s", "speedup", "windows", "saved")
	for _, sessions := range []int{4, 8} {
		writersPer := 4
		updates := sessions * writersPer * updatesPerWriter

		indep, err := runCrossSessions(pipe, sc, dir, "indep", sessions, writersPer, updatesPerWriter, nil)
		if err != nil {
			return "", nil, nil, fmt.Errorf("write: cross-session independent x%d: %w", sessions, err)
		}
		before := wal.GlobalStats()
		batched, err := runCrossSessions(pipe, sc, dir, "batched", sessions, writersPer, updatesPerWriter, wal.NewSyncBatcher())
		if err != nil {
			return "", nil, nil, fmt.Errorf("write: cross-session batched x%d: %w", sessions, err)
		}
		after := wal.GlobalStats()

		cp := CrossSyncPoint{
			Workload:           fmt.Sprintf("control-chain-%d", chainSteps),
			App:                sc.App,
			Sessions:           sessions,
			WritersPerSession:  writersPer,
			Updates:            updates,
			IndependentSeconds: indep.Seconds(),
			IndependentPerSec:  float64(updates) / indep.Seconds(),
			BatchedSeconds:     batched.Seconds(),
			BatchedPerSec:      float64(updates) / batched.Seconds(),
			Speedup:            indep.Seconds() / batched.Seconds(),
			GroupWindows:       after.GroupWindows - before.GroupWindows,
			BatchedSyncs:       after.BatchedSyncs - before.BatchedSyncs,
			SyncsSaved:         after.SyncsSaved - before.SyncsSaved,
		}
		cross = append(cross, cp)
		fmt.Fprintf(&sb, "%-18s %9d %8d %8d %12.0f %12.0f %7.1fx %8d %7d\n",
			cp.Workload, cp.Sessions, cp.WritersPerSession, cp.Updates,
			cp.IndependentPerSec, cp.BatchedPerSec, cp.Speedup, cp.GroupWindows, cp.SyncsSaved)
	}
	return sb.String(), points, cross, nil
}

// runCrossSessions stands up `sessions` concurrent live sessions — each
// with its own maintainer, WAL and group committer — and drives
// writersPer concurrent writers into each. When batcher is nil every
// committer fsyncs its own log directly (the before mode); otherwise every
// commit's fsync funnels through the shared batcher (the after mode),
// which is exactly how the server wires sessions under `-fsync group`.
func runCrossSessions(pipe *core.Pipeline, sc synth.Scenario, dir, tag string, sessions, writersPer, perWriter int, batcher *wal.SyncBatcher) (time.Duration, error) {
	type sessionRig struct {
		log *wal.Log
		cmt *core.Committer
	}
	rigs := make([]sessionRig, sessions)
	for si := range rigs {
		m, err := pipe.Maintain(sc.Facts...)
		if err != nil {
			return 0, err
		}
		log, err := wal.Create(filepath.Join(dir, fmt.Sprintf("cross-%s-%d-%d.wal", tag, sessions, si)),
			wal.Header{App: sc.App, Base: sc.Facts}, wal.SyncGroup)
		if err != nil {
			return 0, err
		}
		sync := log.Sync
		if batcher != nil {
			l := log
			sync = func() error { return batcher.Sync(l) }
		}
		rigs[si] = sessionRig{
			log: log,
			cmt: core.NewCommitter(core.CommitterConfig{
				Queue:      2 * writersPer,
				Maintainer: m,
				OnLog: func(seq uint64, add, retract []ast.Atom) error {
					if err := log.Append(wal.Delta{Seq: seq, Add: add, Retract: retract}); err != nil {
						return err
					}
					return sync()
				},
			}),
		}
	}
	defer func() {
		for _, r := range rigs {
			r.cmt.Close()
			_ = r.log.Close()
		}
	}()

	var (
		wg   sync.WaitGroup
		errc = make(chan error, sessions*writersPer)
	)
	ctx := context.Background()
	start := time.Now()
	for si := range rigs {
		for w := 0; w < writersPer; w++ {
			wg.Add(1)
			go func(cmt *core.Committer, w int) {
				defer wg.Done()
				fact := writerFact(w)
				for j := 0; j < perWriter; j++ {
					add, retract := toggleDelta(fact, j)
					if _, err := cmt.Submit(ctx, add, retract, false); err != nil {
						errc <- err
						return
					}
				}
			}(rigs[si].cmt, w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return 0, err
	default:
	}
	return elapsed, nil
}

// writerFact is writer w's private toggled base fact: disjoint across
// writers, so batches merge cleanly and both modes apply identical logical
// update sequences.
func writerFact(w int) ast.Atom {
	return ast.NewAtom("Own",
		term.Str(fmt.Sprintf("w%d", w)), term.Str(fmt.Sprintf("t%d", w)), term.Float(0.9))
}

// toggleDelta is writer step j: add the private fact on even steps, retract
// it on odd ones.
func toggleDelta(fact ast.Atom, j int) (add, retract []ast.Atom) {
	if j%2 == 0 {
		return []ast.Atom{fact}, nil
	}
	return nil, []ast.Atom{fact}
}

// runSerializedWriters is the baseline: concurrent writers funnel through
// one mutex, each write logged, fsynced and applied on its own.
func runSerializedWriters(pipe *core.Pipeline, sc synth.Scenario, dir string, writers, perWriter int) (time.Duration, error) {
	m, err := pipe.Maintain(sc.Facts...)
	if err != nil {
		return 0, err
	}
	log, err := wal.Create(filepath.Join(dir, fmt.Sprintf("serial-%d.wal", writers)),
		wal.Header{App: sc.App, Base: sc.Facts}, wal.SyncGroup)
	if err != nil {
		return 0, err
	}
	defer log.Close()

	var (
		mu   sync.Mutex
		seq  uint64
		wg   sync.WaitGroup
		errc = make(chan error, writers)
	)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fact := writerFact(w)
			for j := 0; j < perWriter; j++ {
				add, retract := toggleDelta(fact, j)
				mu.Lock()
				seq++
				err := log.Append(wal.Delta{Seq: seq, Add: add, Retract: retract})
				if err == nil {
					err = log.Sync()
				}
				if err == nil {
					_, _, err = m.Update(add, retract)
				}
				mu.Unlock()
				if err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return 0, err
	default:
	}
	return elapsed, nil
}

// runGroupWriters drives the same write sequences through a group
// committer: one WAL record, one fsync and one repair per coalesced batch.
func runGroupWriters(pipe *core.Pipeline, sc synth.Scenario, dir string, writers, perWriter int) (time.Duration, int, int, error) {
	m, err := pipe.Maintain(sc.Facts...)
	if err != nil {
		return 0, 0, 0, err
	}
	log, err := wal.Create(filepath.Join(dir, fmt.Sprintf("group-%d.wal", writers)),
		wal.Header{App: sc.App, Base: sc.Facts}, wal.SyncGroup)
	if err != nil {
		return 0, 0, 0, err
	}
	defer log.Close()

	var commits atomic.Int64
	cmt := core.NewCommitter(core.CommitterConfig{
		Queue:      2 * writers,
		Maintainer: m,
		OnLog: func(seq uint64, add, retract []ast.Atom) error {
			commits.Add(1)
			if err := log.Append(wal.Delta{Seq: seq, Add: add, Retract: retract}); err != nil {
				return err
			}
			return log.Sync()
		},
	})
	defer cmt.Close()

	var (
		wg       sync.WaitGroup
		maxBatch atomic.Int64
		errc     = make(chan error, writers)
	)
	ctx := context.Background()
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fact := writerFact(w)
			for j := 0; j < perWriter; j++ {
				add, retract := toggleDelta(fact, j)
				res, err := cmt.Submit(ctx, add, retract, false)
				if err != nil {
					errc <- err
					return
				}
				for {
					cur := maxBatch.Load()
					if int64(res.Batch) <= cur || maxBatch.CompareAndSwap(cur, int64(res.Batch)) {
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return 0, 0, 0, err
	default:
	}
	return elapsed, int(commits.Load()), int(maxBatch.Load()), nil
}
