package server

// The rebalance control plane: three small endpoints the router drives
// when ring membership changes, so sessions move to their new hash owner
// proactively instead of stampeding through restore-on-first-touch.
//
//	GET  /sessions   the resident session ids of this worker
//	POST /release    {"sessions": [...]} — checkpoint and release each named
//	                 session; when it answers, the state is durable and the
//	                 WAL handle closed, so another worker can restore it
//	                 without racing this process
//	POST /prewarm    {"sessions": [...]} — restore each named session ahead
//	                 of first touch (live traffic racing it joins it)
//
// The protocol is release-then-prewarm per batch: the old owner's handles
// are closed before the new owner opens them, which keeps two processes
// from appending to one session's WAL.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// rebalanceWorkers bounds how many sessions one /release or /prewarm
// request checkpoints or restores concurrently.
const rebalanceWorkers = 4

// sessionListResponse is the GET /sessions body.
type sessionListResponse struct {
	Sessions []string `json:"sessions"`
}

// sessionSetRequest is the POST /release and /prewarm payload.
type sessionSetRequest struct {
	Sessions []string `json:"sessions"`
}

// releaseResponse reports the handoff: Released sessions are durable on
// disk with their write-path resources closed.
type releaseResponse struct {
	Released int `json:"released"`
}

// prewarmResponse reports the warm-up: Restored sessions are resident,
// Failed ones had unusable (or no) durable state and will answer through
// the normal restore/404 path on first touch.
type prewarmResponse struct {
	Restored int `json:"restored"`
	Failed   int `json:"failed"`
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, sessionListResponse{Sessions: s.table.keys()})
}

// eachSession is the body /release and /prewarm share: decode the id set,
// refuse without a WAL directory (why says what that rules out), and run f
// for every id, at most rebalanceWorkers at a time. False: already answered.
func (s *Server) eachSession(w http.ResponseWriter, r *http.Request, why string, f func(id string)) bool {
	var req sessionSetRequest
	if !decodeJSON(w, r, &req) {
		return false
	}
	if s.walDir == "" {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("no WAL directory: %s", why))
		return false
	}
	var wg sync.WaitGroup
	slots := make(chan struct{}, rebalanceWorkers)
	for _, id := range req.Sessions {
		wg.Add(1)
		slots <- struct{}{}
		go func(id string) {
			defer wg.Done()
			defer func() { <-slots }()
			f(id)
		}(id)
	}
	wg.Wait()
	return true
}

// handleRelease checkpoints and releases the named sessions through the
// session table: resident ones are retired, ones already retiring are
// waited out, and one whose restore is in flight is waited for and then
// retired. When a 200 arrives every named session this worker held is
// durable with its WAL handle closed, safe for another process to restore.
// If any wait is cut short (request canceled or timed out) the handler
// answers 503: a retirement may still be running, so the caller must not
// let another worker open the session's files yet.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var (
		released atomic.Int64
		errMu    sync.Mutex
		waitErr  error
	)
	if !s.eachSession(w, r, "sessions are volatile and cannot be handed off", func(id string) {
		ok, err := s.table.release(r.Context(), id)
		if err != nil {
			errMu.Lock()
			if waitErr == nil {
				waitErr = fmt.Errorf("session %s: %w", id, err)
			}
			errMu.Unlock()
		} else if ok {
			released.Add(1)
		}
	}) {
		return
	}
	s.releases.Add(uint64(released.Load()))
	if waitErr != nil {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("release incomplete (retirements may still be running): %w", waitErr))
		return
	}
	writeJSON(w, http.StatusOK, releaseResponse{Released: int(released.Load())})
}

// handlePrewarm restores the named sessions ahead of first touch. Each
// restore goes through the session table, so a live request racing the
// prewarm shares the work instead of duplicating it; sessions already
// resident count as restored. Failures are per-session and non-fatal — a
// session that cannot prewarm simply restores (or 404s) on first touch.
func (s *Server) handlePrewarm(w http.ResponseWriter, r *http.Request) {
	var restored, failed atomic.Int64
	if !s.eachSession(w, r, "nothing to prewarm from", func(id string) {
		ctx := r.Context()
		if s.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
		}
		sess, err := s.table.acquire(ctx, id)
		if err != nil {
			s.logf("server: prewarm %s: %v", id, err)
		}
		if sess == nil {
			failed.Add(1)
		} else {
			restored.Add(1)
		}
	}) {
		return
	}
	s.prewarms.Add(uint64(restored.Load()))
	writeJSON(w, http.StatusOK, prewarmResponse{
		Restored: int(restored.Load()),
		Failed:   int(failed.Load()),
	})
}
