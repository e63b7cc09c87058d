// Command serve runs the explanation service: a JSON-over-HTTP API exposing
// the deployed KG applications for interactive front-ends (the paper's
// Section 4.4 pipeline behind its reference-[10]-style graph environment).
//
// Usage:
//
//	serve -addr :8080
//	serve -addr :8080 -timeout 10s -max-inflight 16   # tighter overload posture
//	serve -addr :8080 -wal-dir wal -fsync group       # durable sessions (WAL + restore)
//
// Then:
//
//	curl localhost:8080/apps
//	curl -X POST localhost:8080/reason -d '{"app":"stress-simple","scenario":true}'
//	curl 'localhost:8080/explain?session=s1&query=Default("C")'
//	curl localhost:8080/stats
//
// The listener carries full transport timeouts (no slowloris exposure) and
// SIGINT/SIGTERM triggers a graceful shutdown: new requests answer 503
// while in-flight ones drain, and requests still running when the drain
// budget expires have their reasoning canceled at the next round boundary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxSessions := flag.Int("max-sessions", 0, "resident-session capacity (0 = default)")
	maxExplanations := flag.Int("max-explanations", 0, "rendered-explanation LRU capacity (0 = default)")
	resultCache := flag.Int("result-cache", 0, "per-app reasoning-result cache capacity (0 = default)")
	timeout := flag.Duration("timeout", 0, "per-request reasoning deadline (0 = default 30s, negative = no deadline)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently admitted reasoning requests; above it requests answer 503 (0 = default 64)")
	maxFacts := flag.Int("max-facts", 0, "fact-store cap per reasoning run; exceeding it answers 422 (0 = unlimited)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for draining in-flight requests")
	walDir := flag.String("wal-dir", "", "directory for per-session write-ahead logs; mutated sessions survive eviction and restarts (empty = volatile sessions)")
	fsync := flag.String("fsync", "group", "WAL fsync policy: group (once per commit batch), per-commit, or off")
	commitWindow := flag.Duration("commit-window", 0, "how long a session's commit leader collects concurrent writes per batch (0 = commit whatever has queued)")
	writeQueue := flag.Int("write-queue", 0, "per-session pending-write queue bound; beyond it writes answer 429 (0 = default 64)")
	compactThreshold := flag.Int("compact-threshold", 0, "checkpoint a session to its snapshot and truncate its WAL after this many committed deltas (0 = no count-based compaction)")
	compactBytes := flag.Int64("compact-bytes", 0, "checkpoint and truncate when a session's WAL exceeds this size in bytes (0 = no size-based compaction)")
	flag.Parse()

	sync, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	s, err := server.NewWithOptions(server.Options{
		MaxSessions:     *maxSessions,
		MaxExplanations: *maxExplanations,
		ResultCacheSize: *resultCache,
		RequestTimeout:  *timeout,
		MaxInflight:     *maxInflight,
		MaxFacts:        *maxFacts,
		WALDir:          *walDir,
		WALSync:         sync,
		CommitWindow:    *commitWindow,
		WriteQueue:      *writeQueue,
		CompactCommits:  *compactThreshold,
		CompactBytes:    *compactBytes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	srv := server.NewHTTPServer(*addr, s.Handler(), server.HTTPTimeouts{})
	// Every request context derives from baseCtx: canceling it (when the
	// drain budget runs out) stops still-running chases at their next
	// round/chunk boundary instead of abandoning them.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv.BaseContext = func(net.Listener) context.Context { return baseCtx }

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("explanation service listening on %s\n", *addr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	case <-sigCtx.Done():
		stop() // a second signal kills the process the default way
		fmt.Fprintf(os.Stderr, "serve: shutting down, draining in-flight requests (budget %s)\n", *drain)
		s.SetDraining(true)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "serve: drain budget exceeded, canceling remaining requests")
			cancelBase()
			_ = srv.Close()
			os.Exit(1)
		}
		// Snapshot-then-handoff: checkpoint every live session so the next
		// worker over this WAL directory restores from snapshots, not
		// replays.
		if n := s.SnapshotAll(); n > 0 {
			fmt.Fprintf(os.Stderr, "serve: checkpointed %d sessions for handoff\n", n)
		}
		fmt.Fprintln(os.Stderr, "serve: drained cleanly")
	}
}
