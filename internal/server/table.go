package server

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/chase"
	"repro/internal/lru"
)

// sessionTable is the worker's one record of where every session is. An id
// is in exactly one state, and every transition happens in one function of
// this file under the table's one mutex:
//
//	absent ──acquire──▶ restoring ──restore ok──▶ resident ──evict/release/drain──▶ retiring ──retire done──▶ absent
//	   │                    └──restore failed / nothing on disk──▶ absent                ▲
//	   └──insert──────────────────────────────────────▶ resident ───────────────────────┘
//
// restoring and retiring are the two states in which somebody holds the
// session's files (the restorer reads them, the retirer still writes the
// checkpoint and closes the WAL handle); both carry a done channel everyone
// else waits on, so the files never have two users in this process. The
// table touches disk only through restore and retire, called unlocked.
type sessionTable struct {
	restore func(ctx context.Context, id string) (*session, error)
	retire  func(*session)

	mu    sync.Mutex
	slots map[string]*slot
	// order lists the resident slots, most recently used first; at most
	// st.Cap of them.
	order *list.List
	// closed is set by drain: nothing becomes resident any more.
	closed bool
	// background counts retirements running on their own goroutine.
	background int
	// st and rs are the /stats counters, kept where they are counted.
	st tableStats
	rs retireStats

	// testHookWait, when set, runs right before a caller blocks on a slot:
	// the interleaving test learns that an operation is parked, no sleeps.
	testHookWait func(done <-chan struct{})
}

// backgroundRetirements bounds the retirements that run on a goroutine of
// their own, so the request that tipped the table over capacity does not
// pay the quiesce + snapshot encode + fsync of an unrelated session. Past
// the bound the evicting request retires inline: a backlog becomes eviction
// backpressure, never a goroutine pile-up. One is measured (PR 10, 100k
// sessions of churn): at depth 4 concurrent retirement fsyncs competed with
// the commit path's group fsyncs and doubled write p99.
const backgroundRetirements = 1

// errTableClosed answers touches of non-resident sessions after drain.
var errTableClosed = errors.New("server: session table is closed")

type slotState uint8

const (
	slotRestoring slotState = iota + 1
	slotResident
	slotRetiring
)

// slot is one id's entry; an absent id has none.
type slot struct {
	id    string
	state slotState
	// sess is the session while resident or retiring. A restoring slot
	// gets sess and err, the restore's outcome, exactly once, before done
	// is closed; neither is written again, so waiters read them unlocked.
	sess *session
	err  error
	// elem is the slot's place in the recency order while resident.
	elem *list.Element
	// done is closed when the slot leaves restoring or retiring.
	done chan struct{}
}

func newSessionTable(capacity int, restore func(context.Context, string) (*session, error), retire func(*session)) *sessionTable {
	if capacity < 1 {
		capacity = 1
	}
	return &sessionTable{
		restore: restore,
		retire:  retire,
		slots:   map[string]*slot{},
		order:   list.New(),
		st:      tableStats{Stats: lru.Stats{Cap: capacity}},
	}
}

// acquire resolves id to its live session. Resident: bump recency and
// return. Restoring: share the restorer's outcome. Retiring: wait until the
// files are final, then restore. Absent: become the restorer. (nil, nil)
// means there is nothing to restore from. One hit or miss is counted.
func (t *sessionTable) acquire(ctx context.Context, id string) (*session, error) {
	for first := true; ; first = false {
		t.mu.Lock()
		sl := t.slots[id]
		if first {
			if sl != nil && sl.state == slotResident {
				t.st.Hits++
			} else {
				t.st.Misses++
			}
		}
		switch {
		case sl == nil:
			if t.closed {
				t.mu.Unlock()
				return nil, errTableClosed
			}
			sl = &slot{id: id, state: slotRestoring, done: make(chan struct{})}
			t.slots[id] = sl
			t.st.Restoring++
			t.mu.Unlock()
			return t.runRestore(ctx, sl)
		case sl.state == slotResident:
			t.order.MoveToFront(sl.elem)
			t.mu.Unlock()
			return sl.sess, nil
		}
		state, done := sl.state, sl.done
		t.mu.Unlock()
		if err := t.await(ctx, done); err != nil {
			return nil, err
		}
		// Share a restore's outcome — unless the restorer died of its own
		// request's cancellation, not of bad durable state, and this request
		// is still live: then take the restore over, as after a retirement.
		takeOver := chase.IsCancellation(sl.err) && ctx.Err() == nil
		if state == slotRestoring && !takeOver {
			return sl.sess, sl.err
		}
	}
}

// await blocks until done closes — the slot it belongs to has left
// restoring or retiring — or ctx dies.
func (t *sessionTable) await(ctx context.Context, done <-chan struct{}) error {
	if t.testHookWait != nil {
		t.testHookWait(done)
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return chase.ContextErr(ctx)
	}
}

// runRestore is the restorer's half of acquire: the disk work runs
// unlocked; the outcome is published, the slot leaves restoring and the
// waiters are released in one critical section.
func (t *sessionTable) runRestore(ctx context.Context, sl *slot) (*session, error) {
	sess, err := t.restore(ctx, sl.id)
	t.mu.Lock()
	sl.sess, sl.err = sess, err
	t.st.Restoring--
	close(sl.done)
	var inline *slot
	if err != nil || sess == nil {
		delete(t.slots, sl.id)
	} else {
		inline = t.admit(sl)
	}
	t.mu.Unlock()
	t.finishRetire(inline, false)
	return sess, err
}

// insert admits a newly opened session. Session ids are never reused, so
// the id is normally absent. If a request naming the id got in first,
// insert waits for that restore or retirement to settle, and if the restore
// brought up the very files the new session just wrote, that copy stays and
// the newcomer's handle is closed.
func (t *sessionTable) insert(id string, sess *session) {
	for {
		t.mu.Lock()
		sl := t.slots[id]
		switch {
		case sl == nil:
			sl = &slot{id: id, sess: sess}
			t.slots[id] = sl
			inline := t.admit(sl)
			t.mu.Unlock()
			t.finishRetire(inline, false)
			return
		case sl.state == slotResident:
			t.mu.Unlock()
			t.retire(sess)
			return
		}
		done := sl.done
		t.mu.Unlock()
		_ = t.await(context.Background(), done) // cannot fail: no deadline
	}
}

// admit makes sl resident and, in the same critical section, moves the
// least recently used resident slot to retiring when the table is over
// capacity; on a closed table sl itself goes straight to retiring. It
// returns the slot the caller has to retire inline, if any. Called with
// t.mu held.
func (t *sessionTable) admit(sl *slot) (inline *slot) {
	if t.closed {
		return t.beginRetire(sl)
	}
	sl.state = slotResident
	sl.elem = t.order.PushFront(sl)
	if t.order.Len() <= t.st.Cap {
		return nil
	}
	t.st.Evictions++
	return t.beginRetire(t.order.Back().Value.(*slot))
}

// beginRetire moves a slot (resident, or new on a closed table) to
// retiring. If a background retirement is free it starts one and returns
// nil; otherwise (or on a closed table) it returns sl, and the caller runs
// finishRetire itself after unlocking. Called with t.mu held.
func (t *sessionTable) beginRetire(sl *slot) (inline *slot) {
	if sl.elem != nil {
		t.order.Remove(sl.elem)
		sl.elem = nil
	}
	sl.state = slotRetiring
	sl.done = make(chan struct{})
	t.st.Retiring++
	if t.closed || t.background == backgroundRetirements {
		return sl
	}
	t.background++
	go t.finishRetire(sl, true)
	return nil
}

// finishRetire runs the retirement of a retiring slot (nil: nothing to
// do), then returns the id to absent and releases the waiters in one
// critical section; the session's files are final when done closes.
func (t *sessionTable) finishRetire(sl *slot, background bool) {
	if sl == nil {
		return
	}
	t.retire(sl.sess)
	t.mu.Lock()
	delete(t.slots, sl.id)
	t.st.Retiring--
	if background {
		t.background--
		t.rs.Async++
	} else {
		t.rs.Inline++
	}
	close(sl.done)
	t.mu.Unlock()
}

// vacate is the step release and drain share: a resident sl is retired, and
// either way it returns once sl has left the in-flight state it was in or
// entered. Called with t.mu held; it unlocks.
func (t *sessionTable) vacate(ctx context.Context, sl *slot) (retired bool, err error) {
	var inline *slot
	if retired = sl.state == slotResident; retired {
		inline = t.beginRetire(sl)
	}
	done := sl.done
	t.mu.Unlock()
	t.finishRetire(inline, false)
	return retired, t.await(ctx, done)
}

// release retires id for handoff to another process and returns once
// nothing in this process holds its files: a resident session is retired
// (released = true), a retirement already running is waited out, and a
// restore in flight is waited for and its result retired. A wait cut short
// by ctx returns the context error — the files may still be in use.
func (t *sessionTable) release(ctx context.Context, id string) (released bool, err error) {
	for {
		t.mu.Lock()
		sl := t.slots[id]
		if sl == nil {
			t.mu.Unlock()
			return false, nil
		}
		restoring := sl.state == slotRestoring
		if released, err = t.vacate(ctx, sl); err != nil {
			return false, err
		}
		if !restoring {
			return released, nil
		}
	}
}

// drain closes the table and empties it: restores and retirements in
// flight are waited out, every resident session is retired. When it
// returns nothing holds a file and nothing becomes resident again: later
// acquires fail with errTableClosed, later inserts go straight to retiring.
func (t *sessionTable) drain() {
	for {
		t.mu.Lock()
		t.closed = true
		var sl *slot
		for _, sl = range t.slots {
			break
		}
		if sl == nil {
			t.mu.Unlock()
			return
		}
		_, _ = t.vacate(context.Background(), sl) // cannot fail: no deadline
	}
}

// keys returns the resident session ids, most recently used first.
func (t *sessionTable) keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, t.order.Len())
	for el := t.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*slot).id)
	}
	return out
}

// tableStats is the /stats "sessions" section: one hit or miss per acquire,
// capacity evictions, Len resident of Cap, and each state's occupancy.
type tableStats struct {
	lru.Stats
	Restoring int `json:"restoring"`
	Resident  int `json:"resident"`
	Retiring  int `json:"retiring"`
}

// retireStats is the /stats retirement section: retirements completed on a
// background goroutine, ones the evicting, releasing or draining caller ran
// itself, and sessions retiring right now.
type retireStats struct {
	Async   uint64 `json:"async"`
	Inline  uint64 `json:"inline"`
	Pending int    `json:"pending"`
}

func (t *sessionTable) stats() (tableStats, retireStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, rs := t.st, t.rs
	st.Len, st.Resident, rs.Pending = t.order.Len(), t.order.Len(), st.Retiring
	return st, rs
}
