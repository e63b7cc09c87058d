package server

// Tests of the session table on its own: fake restore/retire callbacks, no
// chase, no disk. TestTableInterleavings is the exhaustive small model
// check of the lifecycle invariant; the helpers at the top are what the
// server-level suites use to look at (and, to simulate a crash, reach into)
// the table.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chase"
)

// resident returns id's session if it is resident, without touching
// recency or the hit/miss counters.
func (s *Server) resident(id string) *session {
	t := s.table
	t.mu.Lock()
	defer t.mu.Unlock()
	if sl := t.slots[id]; sl != nil && sl.state == slotResident {
		return sl.sess
	}
	return nil
}

// forget drops a resident session without retiring it: its handles are
// abandoned the way a crash abandons them.
func (t *sessionTable) forget(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if sl := t.slots[id]; sl != nil && sl.state == slotResident {
		t.order.Remove(sl.elem)
		delete(t.slots, id)
	}
}

// retiringNow is the number of sessions in the retiring state.
func (t *sessionTable) retiringNow() int {
	_, r := t.stats()
	return r.Pending
}

// waitRetirements blocks until no session is retiring, without closing the
// table the way drain does.
func (t *sessionTable) waitRetirements() {
	for {
		var done chan struct{}
		t.mu.Lock()
		for _, sl := range t.slots {
			if sl.state == slotRetiring {
				done = sl.done
			}
		}
		t.mu.Unlock()
		if done == nil {
			return
		}
		<-done
	}
}

// The model: a table of capacity 1, two ids, and the five things the server
// does to the table. touch and prewarm are both acquire; they differ in
// what ends a parked restore they lead — the touch's request is canceled
// (so a live follower has to take the restore over), the prewarm's restore
// completes.
type modelOp uint8

const (
	opTouch modelOp = iota
	opPrewarm
	opInsert
	opRelease
	opClose
)

var (
	modelOpNames   = [...]string{"touch", "prewarm", "insert", "release", "close"}
	modelIDs       = [2]string{"A", "B"}
	slotStateNames = [...]string{"absent", slotRestoring: "restoring", slotResident: "resident", slotRetiring: "retiring"}
)

// modelStep is one operation; park says whether the callbacks that start
// while it is the latest operation hold still until the next one has been
// issued.
type modelStep struct {
	op   modelOp
	id   int
	park bool
}

func (s modelStep) String() string {
	out := modelOpNames[s.op]
	if s.op != opClose {
		out += " " + modelIDs[s.id]
	}
	if s.park {
		out += " (parked)"
	}
	return out
}

// gate is one parked callback.
type gate struct {
	cb, id string
	open   chan struct{}
	// cancel is set on a restore led by a touch: it is let go by canceling
	// the touch's request instead of opening the gate.
	cancel context.CancelFunc
}

const (
	evFinished = iota
	evWait
	evParked
)

type modelEvent struct {
	kind int
	op   modelStep       // evFinished: the operation that returned
	done <-chan struct{} // evWait: what the operation blocks on
	gate *gate           // evParked
}

type cancelKey struct{}

type model struct {
	tb     testing.TB
	seq    []modelStep
	table  *sessionTable
	events chan modelEvent

	// mu guards what the fake callbacks share with the driver.
	mu sync.Mutex
	// park is the current step's flag.
	park bool
	// disk says which ids have durable state; handles counts the open
	// handles per id; restoringCB/retiringCB count running callbacks.
	disk                    map[string]bool
	handles                 map[string]int
	restoringCB, retiringCB map[string]int
	// restoreStarts counts restore callbacks per id, to spot a handover.
	restoreStarts map[string]int
	// drained is set once a drain has returned.
	drained bool

	// Driver state, touched only by the test goroutine: operations issued
	// and not yet returned (pending says which), what the blocked ones wait
	// on, and the parked callbacks.
	inflight int
	pending  map[modelStep]int
	waits    []<-chan struct{}
	parked   []*gate
	acquires uint64
	// covered counts, across runs, which operation met which state.
	covered map[string]int
}

func newModel(tb testing.TB, seq []modelStep, onDisk bool) *model {
	m := &model{
		tb:            tb,
		seq:           seq,
		events:        make(chan modelEvent, 64), // never more events in flight than goroutines; generous
		disk:          map[string]bool{},
		handles:       map[string]int{},
		restoringCB:   map[string]int{},
		retiringCB:    map[string]int{},
		restoreStarts: map[string]int{},
		pending:       map[modelStep]int{},
	}
	for _, id := range modelIDs {
		m.disk[id] = onDisk
	}
	m.table = newSessionTable(1, m.restore, m.retire)
	m.table.testHookWait = func(done <-chan struct{}) { m.events <- modelEvent{kind: evWait, done: done} }
	return m
}

func (m *model) failf(format string, args ...any) {
	m.tb.Errorf("%v: %s", m.seq, fmt.Sprintf(format, args...))
}

// hold parks the calling callback if the current step says so, and reports
// whether ctx ended the wait.
func (m *model) hold(ctx context.Context, park bool, cb, id string) error {
	if !park {
		return nil
	}
	g := &gate{cb: cb, id: id, open: make(chan struct{})}
	g.cancel, _ = ctx.Value(cancelKey{}).(context.CancelFunc)
	m.events <- modelEvent{kind: evParked, gate: g}
	select {
	case <-g.open:
		return nil
	case <-ctx.Done():
		return chase.ContextErr(ctx)
	}
}

// restore is the fake restore callback: it opens a handle if the id has
// durable state, and checks it never overlaps a retire or another restore
// of the same id.
func (m *model) restore(ctx context.Context, id string) (*session, error) {
	m.mu.Lock()
	if m.retiringCB[id] > 0 {
		m.failf("restore of %s started before its retire finished", id)
	}
	if m.restoringCB[id] > 0 {
		m.failf("two restores of %s at once", id)
	}
	if m.handles[id] != 0 {
		m.failf("restore of %s with %d handles already open", id, m.handles[id])
	}
	if m.drained {
		m.failf("restore of %s started after drain had returned", id)
	}
	m.restoringCB[id]++
	m.restoreStarts[id]++
	park := m.park
	m.mu.Unlock()

	err := m.hold(ctx, park, "restore", id)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.restoringCB[id]--
	if err != nil || !m.disk[id] {
		return nil, err
	}
	m.handles[id]++
	return &session{id: id}, nil
}

// retire is the fake retire callback: it closes the id's one handle.
func (m *model) retire(sess *session) {
	id := sess.id
	m.mu.Lock()
	if m.restoringCB[id] > 0 || m.retiringCB[id] > 0 {
		m.failf("retire of %s overlaps another callback on it", id)
	}
	if m.handles[id] != 1 {
		m.failf("retire of %s with %d handles open", id, m.handles[id])
	}
	m.retiringCB[id]++
	park := m.park
	m.mu.Unlock()

	_ = m.hold(context.Background(), park, "retire", id)

	m.mu.Lock()
	m.retiringCB[id]--
	m.handles[id]--
	m.mu.Unlock()
}

func (m *model) launch(s modelStep, f func()) {
	s.park = false
	m.inflight++
	m.pending[s]++
	go func() {
		f()
		m.events <- modelEvent{kind: evFinished, op: s}
	}()
}

// acquireOp is touch and prewarm.
func (m *model) acquireOp(ctx context.Context, id string) {
	sess, err := m.table.acquire(ctx, id)
	switch {
	case err != nil && !chase.IsCancellation(err) && !errors.Is(err, errTableClosed):
		m.failf("acquire %s: unexpected error %v", id, err)
	case sess != nil && sess.id != id:
		m.failf("acquire %s returned session %s", id, sess.id)
	}
}

// do issues one operation on a goroutine of its own.
func (m *model) do(s modelStep) {
	id := modelIDs[s.id]
	m.cover(s, id)
	switch s.op {
	case opTouch:
		m.acquires++
		ctx, cancel := context.WithCancel(context.Background())
		ctx = context.WithValue(ctx, cancelKey{}, cancel)
		m.launch(s, func() {
			defer cancel()
			m.acquireOp(ctx, id)
		})
	case opPrewarm:
		m.acquires++
		m.launch(s, func() { m.acquireOp(context.Background(), id) })
	case opInsert:
		// The server's id claim: ids with state anywhere are never reissued.
		m.table.mu.Lock()
		known := m.table.slots[id] != nil
		m.table.mu.Unlock()
		m.mu.Lock()
		taken := m.disk[id] || known
		if !taken {
			m.disk[id] = true
			m.handles[id]++ // the new session's WAL handle
		}
		m.mu.Unlock()
		if !taken {
			m.launch(s, func() { m.table.insert(id, &session{id: id}) })
		}
	case opRelease:
		m.mu.Lock()
		started := m.restoreStarts[id]
		m.mu.Unlock()
		m.launch(s, func() {
			if _, err := m.table.release(context.Background(), id); err != nil {
				m.failf("release %s: %v", id, err)
			}
			// The promise of a release: no handle open, unless a restore
			// that began after the release was issued opened a new one.
			m.mu.Lock()
			if m.handles[id] != 0 && m.restoreStarts[id] == started {
				m.failf("release %s returned with the handle open", id)
			}
			m.mu.Unlock()
		})
	case opClose:
		m.launch(s, func() {
			m.table.drain()
			m.table.mu.Lock()
			if n := len(m.table.slots); n != 0 {
				m.failf("drain returned with %d ids still in the table", n)
			}
			m.table.mu.Unlock()
			m.mu.Lock()
			m.drained = true
			m.mu.Unlock()
		})
	}
}

// cover records which state the operation is about to meet.
func (m *model) cover(s modelStep, id string) {
	t := m.table
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case s.op == opClose:
		for _, sl := range t.slots {
			m.covered["close on "+slotStateNames[sl.state]]++
		}
	case s.op == opInsert && t.closed:
		m.covered["insert on closed"]++
	default:
		state := slotState(0)
		if sl := t.slots[id]; sl != nil {
			state = sl.state
		}
		m.covered[modelOpNames[s.op]+" on "+slotStateNames[state]]++
	}
}

func (m *model) apply(ev modelEvent) {
	switch ev.kind {
	case evFinished:
		m.inflight--
		if m.pending[ev.op]--; m.pending[ev.op] == 0 {
			delete(m.pending, ev.op)
		}
	case evWait:
		m.waits = append(m.waits, ev.done)
	case evParked:
		m.parked = append(m.parked, ev.gate)
	}
}

func (m *model) isParked(id string) bool {
	for _, g := range m.parked {
		if g.id == id {
			return true
		}
	}
	return false
}

// settle returns once nothing is running: every operation in flight and
// every background retirement is blocked on a slot that is still in
// flight, or parked in a callback. It waits on events, never on time.
func (m *model) settle() {
	for {
		for drained := false; !drained; {
			select {
			case ev := <-m.events:
				m.apply(ev)
			default:
				drained = true
			}
		}
		// Read the background count before looking at the wait channels:
		// finishRetire drops it and closes done in one critical section.
		t := m.table
		t.mu.Lock()
		background := t.background
		var working <-chan struct{}
		for id, sl := range t.slots {
			if sl.state != slotResident && !m.isParked(id) {
				working = sl.done
			}
		}
		t.mu.Unlock()
		open := m.waits[:0]
		for _, w := range m.waits {
			select {
			case <-w:
			default:
				open = append(open, w)
			}
		}
		m.waits = open
		if m.inflight+background == len(m.waits)+len(m.parked) {
			return
		}
		select {
		case ev := <-m.events:
			m.apply(ev)
		case <-working:
		case <-time.After(10 * time.Second):
			m.tb.Fatalf("%v: stuck: %d operations in flight %v, %d waiting, %d parked",
				m.seq, m.inflight, m.pending, len(m.waits), len(m.parked))
		}
	}
}

// letGo ends the given parked callbacks.
func (m *model) letGo(gates []*gate) {
	for _, g := range gates {
		for i, p := range m.parked {
			if p == g {
				m.parked = append(m.parked[:i], m.parked[i+1:]...)
				break
			}
		}
		if g.cancel != nil {
			g.cancel()
		} else {
			close(g.open)
		}
	}
}

// check is the per-step invariant: the table's own bookkeeping agrees with
// itself, and each id's state matches the handles the callbacks opened.
func (m *model) check() {
	t := m.table
	t.mu.Lock()
	defer t.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	restoring, retiring := 0, 0
	for id, sl := range t.slots {
		if sl.id != id {
			m.failf("slot %s filed under %s", sl.id, id)
		}
		want := 1
		switch sl.state {
		case slotRestoring:
			restoring++
			want = 0
		case slotRetiring:
			retiring++
		case slotResident:
		default:
			m.failf("%s is in no state (%d)", id, sl.state)
		}
		if (sl.elem != nil) != (sl.state == slotResident) {
			m.failf("%s: state %d but in recency order = %v", id, sl.state, sl.elem != nil)
		}
		if m.handles[id] != want {
			m.failf("%s in state %d has %d handles open, want %d", id, sl.state, m.handles[id], want)
		}
	}
	for _, id := range modelIDs {
		if t.slots[id] == nil && m.handles[id] != 0 {
			m.failf("%s is absent with %d handles open", id, m.handles[id])
		}
	}
	if restoring != t.st.Restoring || retiring != t.st.Retiring {
		m.failf("state counters %d/%d, slots say %d/%d", t.st.Restoring, t.st.Retiring, restoring, retiring)
	}
	if n := t.order.Len(); n > t.st.Cap || n != len(t.slots)-restoring-retiring {
		m.failf("%d resident in the order, cap %d, %d slots", n, t.st.Cap, len(t.slots))
	}
	if t.background > backgroundRetirements {
		m.failf("%d background retirements", t.background)
	}
	if t.closed && t.order.Len() > 0 && m.inflight == 0 {
		m.failf("closed table still has residents with nothing in flight")
	}
}

// key describes everything that decides how the table behaves from here:
// two prefixes with the same key have the same futures. Ids are renamed so
// that a state and its mirror image share a key.
func (m *model) key() string {
	t := m.table
	t.mu.Lock()
	defer t.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	render := func(first int) string {
		name := map[string]string{modelIDs[first]: "X", modelIDs[1-first]: "Y"}
		var b strings.Builder
		for _, id := range []string{modelIDs[first], modelIDs[1-first]} {
			state := slotState(0)
			if sl := t.slots[id]; sl != nil {
				state = sl.state
			}
			fmt.Fprintf(&b, "%s:%d,%v,%d ", name[id], state, m.disk[id], m.handles[id])
		}
		fmt.Fprintf(&b, "closed=%v bg=%d", t.closed, t.background)
		var rest []string
		for _, g := range m.parked {
			rest = append(rest, fmt.Sprintf("%s %s %v", g.cb, name[g.id], g.cancel != nil))
		}
		for op, n := range m.pending {
			on := name[modelIDs[op.id]]
			if op.op == opClose {
				on = ""
			}
			rest = append(rest, fmt.Sprintf("%s %s x%d", modelOpNames[op.op], on, n))
		}
		sort.Strings(rest)
		return b.String() + " " + strings.Join(rest, ";")
	}
	a, b := render(0), render(1)
	if b < a {
		return b
	}
	return a
}

// runModel plays seq against a fresh table, checking the invariant after
// every step, and returns the key of the state the sequence ends in. It
// then lets every parked callback go and checks that nothing is left over.
func runModel(tb testing.TB, seq []modelStep, onDisk bool, covered map[string]int) string {
	m := newModel(tb, seq, onDisk)
	m.covered = covered
	for _, s := range seq {
		m.mu.Lock()
		m.park = s.park
		m.mu.Unlock()
		held := append([]*gate(nil), m.parked...)
		m.do(s)
		m.settle()
		m.mu.Lock()
		starts := map[string]int{}
		for id, n := range m.restoreStarts {
			starts[id] = n
		}
		m.mu.Unlock()
		m.letGo(held)
		m.settle()
		m.check()
		// A canceled restorer followed, with no new operation issued, by
		// another restore of the same id: a follower took the restore over.
		m.mu.Lock()
		for _, g := range held {
			if g.cancel != nil && m.restoreStarts[g.id] > starts[g.id] {
				covered["handover"]++
			}
		}
		m.mu.Unlock()
	}
	key := m.key()

	m.mu.Lock()
	m.park = false
	m.mu.Unlock()
	for len(m.parked) > 0 {
		m.letGo(append([]*gate(nil), m.parked...))
		m.settle()
	}
	m.check()
	if m.inflight != 0 {
		m.failf("operations never returned: %v", m.pending)
	}
	t := m.table
	stats, _ := t.stats()
	if stats.Restoring != 0 || stats.Retiring != 0 {
		m.failf("at rest with %d restoring, %d retiring", stats.Restoring, stats.Retiring)
	}
	if stats.Hits+stats.Misses != m.acquires {
		m.failf("%d hits + %d misses for %d acquires", stats.Hits, stats.Misses, m.acquires)
	}
	if t.closed && stats.Resident != 0 {
		m.failf("closed table at rest with %d residents", stats.Resident)
	}
	_, retired := t.stats()
	covered["retired in background"] += int(retired.Async)
	covered["retired inline"] += int(retired.Inline)
	return key
}

// TestTableInterleavings enumerates every sequence of up to five
// operations over {touch, insert, release, prewarm, close} x two ids, each
// with its callbacks either returning at once or parked across the next
// operation, from an empty directory and from one that already holds both
// sessions. Sequences are explored breadth first and a prefix is extended
// only if it ends in a state no shorter-or-equal prefix reached (up to
// swapping the two ids) — equal states have equal futures — which is what
// keeps the run in milliseconds. After every step: each id is in exactly
// one state and the table's counters agree with it; an id has one open
// handle exactly when it is resident or retiring and never two; a restore
// never starts before a retire of the same id has finished; a release
// returns with the id's handle closed; after drain nothing is resident, no
// restore starts and nothing becomes resident. After every sequence, once
// the parked callbacks are let go, every operation has returned — a
// canceled restorer's followers included — and one hit or miss was counted
// per acquire. The coverage check at the end keeps the enumeration honest:
// every operation met every state it can meet.
func TestTableInterleavings(t *testing.T) {
	var choices []modelStep
	for _, park := range []bool{false, true} {
		for op := opTouch; op < opClose; op++ {
			for id := range modelIDs {
				choices = append(choices, modelStep{op: op, id: id, park: park})
			}
		}
		choices = append(choices, modelStep{op: opClose, park: park})
	}
	type prefix struct {
		onDisk bool
		seq    []modelStep
	}
	const depth = 5
	runs := 0
	seen := map[string]bool{}
	covered := map[string]int{}
	frontier := []prefix{{onDisk: false}, {onDisk: true}}
	for d := 1; d <= depth; d++ {
		var next []prefix
		for _, p := range frontier {
			for _, c := range choices {
				seq := append(p.seq[:len(p.seq):len(p.seq)], c)
				key := runModel(t, seq, p.onDisk, covered)
				runs++
				if t.Failed() {
					t.Fatalf("first failing sequence (sessions on disk: %v): %v", p.onDisk, seq)
				}
				if !seen[key] {
					seen[key] = true
					next = append(next, prefix{p.onDisk, seq})
				}
			}
		}
		frontier = next
	}
	t.Logf("%d sequences played, %d distinct states", runs, len(seen))

	want := []string{"handover", "insert on absent", "insert on closed",
		"close on restoring", "close on retiring", "retired in background", "retired inline"}
	for _, op := range []string{"touch", "prewarm", "release"} {
		for _, st := range slotStateNames {
			want = append(want, op+" on "+st)
		}
	}
	for _, w := range want {
		if covered[w] == 0 {
			t.Errorf("the enumeration never exercised %q (covered: %v)", w, covered)
		}
	}
}
