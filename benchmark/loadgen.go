package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

type opClass int

const (
	classRead opClass = iota
	classExplain
	classWrite
	numClasses
)

var classNames = [numClasses]string{"read", "explain", "write"}

// op is one scheduled request. Everything about it is drawn from the seed
// before the phase starts; only a write's direction (add or retract) is
// decided when it runs, from the session's acknowledged state.
type op struct {
	at     time.Duration // intended send time since the phase began (open loop)
	class  opClass
	sess   int // index into driver.sessions
	target int // explain: index into the session's targets
	ticket int // write: its place in the session's write order
}

// opResult is what one request observed. The timed path keeps only the
// status and the raw body; decode fills in the rest after the phase, so that
// parsing a reply never delays the next request's release.
type opResult struct {
	op      op
	ms      float64 // latency: from intended send time (open loop) or from send (closed loop)
	lateMs  float64 // open loop: how late the generator released the request
	body    []byte
	err     string // empty when the request was answered 200 and decoded
	epoch   uint64
	hash    uint64 // answers digest (read, write) or explanation digest (explain)
	flagged bool   // explain: the tier itself reported the explanation incomplete
}

// clientSession is the load generator's view of one session.
type clientSession struct {
	in      *sessionInput
	targets []string // initial answers, the explain targets
	queries []string // the same, as escaped /explain query strings

	// Write order. issued counts tickets handed out by the schedule; done,
	// present, acked and unsure are guarded by driver.mu; lastEpoch is set
	// by decode, after the phase.
	issued    int
	done      int
	present   bool
	acked     int
	lastEpoch uint64
	unsure    bool // a write failed, so the edge's state is not known
}

// driver issues requests against one front URL and records what came back.
type driver struct {
	client   *http.Client
	front    string
	sessions []*clientSession
	tr       *tracer

	mu   sync.Mutex
	cond *sync.Cond
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func newDriver(client *http.Client, front string, sessions []*clientSession, tr *tracer) *driver {
	d := &driver{client: client, front: front, sessions: sessions, tr: tr}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// mixer draws operations for one workload from a seeded source.
type mixer struct {
	rng           *rand.Rand
	mix           [numClasses]int
	zipf          bool
	writeSessions int // writes go to the first this many sessions (0 = any)
	sessions      []*clientSession
}

// next draws one operation (without a send time).
func (m *mixer) next() op {
	o := op{sess: m.rng.Intn(len(m.sessions))}
	p := m.rng.Intn(100)
	switch {
	case p < m.mix[classRead]:
		o.class = classRead
	case p < m.mix[classRead]+m.mix[classExplain]:
		o.class = classExplain
	default:
		o.class = classWrite
	}
	if o.class == classWrite && m.writeSessions > 0 {
		o.sess %= min(m.writeSessions, len(m.sessions))
	}
	s := m.sessions[o.sess]
	switch o.class {
	case classExplain:
		n := len(s.targets)
		if n == 0 {
			o.class = classRead
		} else if m.zipf && n > 1 {
			// Skewed so the tier's explanation cache sees hits and misses.
			o.target = int(rand.NewZipf(m.rng, 1.1, 1, uint64(n-1)).Uint64())
		} else {
			o.target = m.rng.Intn(n)
		}
	case classWrite:
		o.ticket = s.issued
		s.issued++
	}
	return o
}

// schedule draws Poisson arrivals at rate per second for dur.
func (m *mixer) schedule(rate float64, dur time.Duration) []op {
	var ops []op
	var at time.Duration
	for {
		at += time.Duration(m.rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return ops
		}
		o := m.next()
		o.at = at
		ops = append(ops, o)
	}
}

type readReply struct {
	Session string   `json:"session"`
	Epoch   uint64   `json:"epoch"`
	Answers []string `json:"answers"`
}

type explainReply struct {
	Text          string `json:"text"`
	Deterministic string `json:"deterministic"`
	Complete      bool   `json:"complete"`
}

// roundTrip sends one request and returns the status and the whole body.
func (d *driver) roundTrip(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings always marshal
	}
	return b
}

// exec runs one operation. intended is the time latency counts from; zero
// means "now" (closed loop).
func (d *driver) exec(o op, intended time.Time) opResult {
	res := opResult{op: o}
	s := d.sessions[o.sess]
	req := d.tr.request()
	dequeued := time.Now()
	if intended.IsZero() {
		intended = dequeued
	}

	var method, target string
	var body []byte
	present := false
	switch o.class {
	case classRead:
		method, target = http.MethodPost, d.front+"/reason"
		body = jsonBody(map[string]string{"session": s.in.ID})
	case classExplain:
		method, target = http.MethodGet, d.front+"/explain?session="+s.in.ID+"&query="+s.queries[o.target]
	case classWrite:
		// Writes of one session run in ticket order, so "add" and "retract"
		// always alternate on the server no matter which connection carries
		// them. Waiting for the turn counts into the write's latency.
		d.mu.Lock()
		for s.done != o.ticket {
			d.cond.Wait()
		}
		present = s.present
		d.mu.Unlock()
		field := "add"
		if present {
			field = "retract"
		}
		method, target = http.MethodPost, d.front+"/facts"
		body = jsonBody(map[string]string{"session": s.in.ID, field: s.in.WriteFact})
	}

	sent := time.Now()
	status, data, err := d.roundTrip(method, target, body)
	answered := time.Now()
	res.ms = float64(answered.Sub(intended)) / float64(time.Millisecond)
	switch {
	case err != nil:
		res.err = err.Error()
	case status != http.StatusOK:
		res.err = fmt.Sprintf("status %d: %.200s", status, data)
	default:
		res.body = data
	}

	if o.class == classWrite {
		d.mu.Lock()
		s.done++
		if res.err == "" {
			s.present = !present
			s.acked++
		} else {
			s.unsure = true
		}
		d.cond.Broadcast()
		d.mu.Unlock()
	}

	if d.tr != nil {
		root := d.tr.add("client.request."+classNames[o.class], intended, answered.Sub(intended), -1, req)
		d.tr.add("client.queue", intended, sent.Sub(intended), root, req)
		d.tr.add("client.http", sent, answered.Sub(sent), root, req)
	}
	return res
}

// decode parses the replies of a finished phase: digests for the oracle
// check, and each session's last acknowledged epoch.
func (d *driver) decode(results []opResult) {
	for i := range results {
		r := &results[i]
		if r.err != "" {
			continue
		}
		s := d.sessions[r.op.sess]
		if r.op.class == classExplain {
			var e explainReply
			if err := json.Unmarshal(r.body, &e); err != nil {
				r.err = "decoding: " + err.Error()
			} else {
				r.hash, r.flagged = hashExplanation(e.Text, e.Deterministic), !e.Complete
			}
		} else {
			var a readReply
			if err := json.Unmarshal(r.body, &a); err != nil {
				r.err = "decoding: " + err.Error()
			} else if a.Session != s.in.ID {
				r.err = fmt.Sprintf("answered for session %q, asked %q", a.Session, s.in.ID)
			} else {
				r.epoch, r.hash = a.Epoch, hashAnswers(a.Answers)
				if r.op.class == classWrite && a.Epoch > s.lastEpoch {
					s.lastEpoch = a.Epoch
				}
			}
		}
		r.body = nil
	}
}

// openLoop releases each operation at its intended time, whether or not
// earlier ones have been answered, over at most conns connections. A
// request that finds every connection busy waits, and that wait is part of
// its latency: latency counts from the intended send time.
func (d *driver) openLoop(ops []op, conns int) ([]opResult, error) {
	timer, err := newPreciseTimer()
	if err != nil {
		return nil, err
	}
	defer timer.close()
	defer quietGC()()

	type release struct {
		i      int
		lateMs float64
	}
	// Sized to the number of sends: the generator must never block on a
	// slow server, or the loop would close.
	queue := make(chan release, len(ops))
	results := make([]opResult, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				res := d.exec(ops[r.i], start.Add(ops[r.i].at))
				res.lateMs = r.lateMs
				results[r.i] = res
			}
		}()
	}
	for i := range ops {
		due := start.Add(ops[i].at)
		if err := timer.sleep(time.Until(due)); err != nil {
			close(queue)
			wg.Wait()
			return nil, err
		}
		queue <- release{i, float64(time.Since(due)) / float64(time.Millisecond)}
	}
	close(queue)
	wg.Wait()
	return results, nil
}

// closedLoop keeps conns callers busy for dur: each sends its next request
// when the previous one is answered. Operations come from next, which is
// called under a lock so the sequence is the seed's.
func (d *driver) closedLoop(next func() op, conns int, dur time.Duration) ([]opResult, time.Duration) {
	defer quietGC()()
	var mu sync.Mutex
	shards := make([][]opResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				o := next()
				mu.Unlock()
				shards[c] = append(shards[c], d.exec(o, time.Time{}))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []opResult
	for _, s := range shards {
		all = append(all, s...)
	}
	return all, wall
}

// quietGC keeps the collector out of a timed phase and returns the function
// that lets it back in. The generator has one P: a collection there holds
// the release of the next request for milliseconds (measured: generator
// lateness p99 2.8 ms with the collector on). A phase allocates tens of MiB of
// reply bodies; the memory limit is the backstop.
func quietGC() func() {
	runtime.GC()
	limit := debug.SetMemoryLimit(2 << 30)
	percent := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(percent)
		debug.SetMemoryLimit(limit)
	}
}

// escapeQuery prepares an answer for the /explain query parameter.
func escapeQuery(answer string) string { return url.QueryEscape(queryOf(answer)) }
