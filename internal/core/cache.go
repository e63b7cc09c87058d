package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/database"
	"repro/internal/incremental"
)

// reasonFingerprint canonically fingerprints one reasoning request: the
// program text plus the effective chase options that can change the
// outcome, plus the maintained instance's epoch (0 until the pipeline's
// first Update). Extra facts are hashed in order — fact order determines
// fact ids and hence proofs, so two requests are "the same run" only when
// their fact lists match positionally. MaxRounds and MaxFacts are
// included because they decide whether a run errors at all. The epoch is
// included because an update changes the effective base without changing
// the program text: without it, a result cached before the update would
// keep answering requests made after it.
func reasonFingerprint(prog *ast.Program, opts chase.Options, epoch uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\x00%d\x00%d\x00", opts.MaxRounds, opts.MaxFacts, epoch)
	h.Write([]byte(prog.String()))
	h.Write([]byte{0})
	for _, f := range opts.ExtraFacts {
		h.Write([]byte(f.Key()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// flightGroup deduplicates concurrent identical reasoning runs: the first
// caller of a key becomes the leader and runs the chase; callers arriving
// while it is in flight wait and share the leader's result and error
// (singleflight, specialized to chase results).
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	// done is closed when the leader's run finishes, making res/err
	// readable. A channel rather than a WaitGroup so that waiters can also
	// select on their own context and leave early.
	done chan struct{}
	res  *chase.Result
	err  error
	// waiters counts callers that joined this in-flight run (guarded by
	// the group mutex).
	waiters int
}

// waiting reports how many callers are currently waiting on key's
// in-flight run, and whether such a run exists.
func (g *flightGroup) waiting(key string) (int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.calls[key]
	if !ok {
		return 0, false
	}
	return c.waiters, true
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: map[string]*flightCall{}}
}

// do runs fn under key, collapsing concurrent calls for the same key onto
// one execution. The returned bool reports whether this caller joined
// another caller's in-flight run.
//
// Cancellation does not fate-share: a waiter whose own context dies stops
// waiting and returns its own typed error, and a waiter whose leader was
// canceled (through the *leader's* context) retries as a fresh leader
// instead of inheriting the cancellation — one impatient client must not
// fail every client piled up behind it. Canceled runs return err != nil, so
// they are never written to the result cache (the Put in Reason is gated on
// err == nil): cancellation cannot poison the cache.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*chase.Result, error)) (*chase.Result, error, bool) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[key]; ok {
			c.waiters++
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, chase.ContextErr(ctx), true
			}
			if chase.IsCancellation(c.err) {
				if err := chase.ContextErr(ctx); err != nil {
					return nil, err, true
				}
				continue // leader canceled, we are alive: run it ourselves
			}
			return c.res, c.err, true
		}
		c := &flightCall{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()

		c.res, c.err = fn()

		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		return c.res, c.err, false
	}
}

// explKey identifies one memoized explanation: the chase result it was
// extracted from (by identity — results are immutable) and the explained
// fact.
type explKey struct {
	res *chase.Result
	id  database.FactID
}

// CacheStats snapshots the pipeline's cache accounting; zero-valued
// sections mean the corresponding cache is disabled.
type CacheStats struct {
	// Results accounts the reasoning-result cache behind Reason.
	Results Stats `json:"results"`
	// Explanations accounts the explanation memo behind ExplainFact.
	Explanations Stats `json:"explanations"`
	// SharedRuns counts Reason calls that joined another caller's
	// in-flight chase run instead of starting their own.
	SharedRuns uint64 `json:"sharedRuns"`
	// Epoch is the maintained instance's mutation epoch (0 before the
	// pipeline's first Update); it versions every result-cache key.
	Epoch uint64 `json:"epoch"`
	// Incremental holds the maintained instance's cumulative update
	// counters; all zero before the first Update.
	Incremental incremental.Counters `json:"incremental"`
}

// Stats mirrors lru.Stats without exporting the lru package in core's API.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Len       int    `json:"len"`
	Cap       int    `json:"cap"`
}

// CacheStats reports the pipeline's current cache accounting.
func (p *Pipeline) CacheStats() CacheStats {
	var cs CacheStats
	if p.results != nil {
		s := p.results.Stats()
		cs.Results = Stats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Len: s.Len, Cap: s.Cap}
	}
	if p.expl != nil {
		s := p.expl.Stats()
		cs.Explanations = Stats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Len: s.Len, Cap: s.Cap}
	}
	cs.SharedRuns = p.sharedRuns.Load()
	cs.Epoch = p.Epoch()
	cs.Incremental = p.IncrementalStats()
	return cs
}
