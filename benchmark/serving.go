package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/router"
	"repro/internal/verbalizer"
)

// runConfig is one invocation's settings.
type runConfig struct {
	root    string // checkout root
	binDir  string // where serve and router were built
	tmpRoot string // scratch space inside the checkout
	outDir  string // where trace files go
	seed    int64
	seconds float64
	scale   float64 // multiplies population sizes; 1 outside the smoke test
	trace   bool
	conns   int // load-generator connections: the machine's core count
	cpus    cpuPlan
	buildS  float64
}

// runResult is what one workload run reports.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Phases    map[string]float64 `json:"phaseSeconds"` // wall time of each part of the run
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	Absent    map[string]string  `json:"absent,omitempty"` // metric -> why it has no value
	Start     time.Time          `json:"start"`
	End       time.Time          `json:"end"`

	addrs []string // every address a server of this run listened on
}

func newResult(w *workloadSpec, cfg *runConfig) *runResult {
	return &runResult{
		Workload: w.Name, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]float64{}, Samples: map[string]int{}, Phases: map[string]float64{},
		Absent: map[string]string{}, Start: time.Now(),
	}
}

// phase records how long a part of the run took since *since, and resets it.
func (r *runResult) phase(name string, since *time.Time) {
	r.Phases[name] += time.Since(*since).Seconds()
	*since = time.Now()
}

// fail counts n failed operations and keeps the first few descriptions.
func (r *runResult) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

func scaled(n int, scale float64) int {
	if m := int(float64(n)*scale + 0.5); m > 4 {
		return m
	}
	return 4
}

// servingRun is the state of one serving-workload run.
type servingRun struct {
	w      *workloadSpec
	cfg    *runConfig
	res    *runResult
	orc    *oracle
	sess   []*clientSession
	client *http.Client
	tier   *tier
	drv    *driver
	open   samples // ms per session open, over every set-up
	setups samples // seconds per set-up
}

// runServing executes one serving workload end to end.
func runServing(w *workloadSpec, cfg *runConfig, tr *tracer) (res *runResult, err error) {
	run := &servingRun{w: w, cfg: cfg, res: newResult(w, cfg), client: newClient(cfg.conns)}
	mark := time.Now()
	if run.orc, err = newOracle(); err != nil {
		return nil, err
	}
	for _, in := range genSessions(w, scaled(w.Sessions, cfg.scale), cfg.seed) {
		ref, err := run.orc.session(in)
		if err != nil {
			return nil, err
		}
		cs := &clientSession{in: in, targets: ref.answers[0]}
		for _, a := range cs.targets {
			cs.queries = append(cs.queries, escapeQuery(a))
		}
		run.sess = append(run.sess, cs)
	}

	run.res.phase("generate", &mark)
	dir, err := os.MkdirTemp(cfg.tmpRoot, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if run.tier != nil {
			run.tier.stop(true)
		}
		os.RemoveAll(dir)
		run.client.CloseIdleConnections()
	}()

	// The first set-up's tier is the one measured; the others follow the
	// measurement (see below).
	if err := run.setUp(dir, 0); err != nil {
		return nil, err
	}
	res = run.res
	res.phase("setup", &mark)
	res.Metrics["harness.fsync_probe_us"] = fsyncProbe(run.tier.walDir)

	before := run.statsDocs()
	mix := &mixer{rng: rand.New(rand.NewSource(cfg.seed ^ 0x5eed)), mix: w.Mix, zipf: w.Zipf, writeSessions: w.WriteSessions, sessions: run.sess}
	openDur := time.Duration(cfg.seconds * openLoopShare * float64(time.Second))
	closedDur := time.Duration(cfg.seconds * closedLoopShare * float64(time.Second))

	// Warm-up at the workload's rate, checked but not reported: populating
	// leaves background work behind (retirements, snapshot writes) and cold
	// caches (connections, explanations), and a phase that starts on top of
	// them measured up to a fifth slower, by a different amount each run.
	discarded, err := run.drv.openLoop(mix.schedule(w.Rate, time.Duration(cfg.seconds*warmupShare*float64(time.Second))), cfg.conns)
	if err != nil {
		return nil, err
	}
	run.drv.decode(discarded)
	res.phase("warm_up", &mark)

	// A phase whose generator ran late did not offer the load it claims: it
	// is not reported. Its replies are still checked, and the phase is run
	// again on a fresh schedule; a run that cannot produce a punctual phase
	// fails.
	var timed []opResult
	for attempt := 1; ; attempt++ {
		if timed, err = run.openLoopPhase(mix, openDur, tr); err != nil {
			return nil, err
		}
		var late samples
		for _, r := range timed {
			late = append(late, r.lateMs)
		}
		res.Metrics["harness.late_p99_ms"] = late.quantile(0.99)
		res.Metrics["harness.open_loop_attempts"] = float64(attempt)
		if late.quantile(0.99) <= maxLateP99Ms {
			break
		}
		if attempt == openLoopAttempts {
			res.fail(1, "generator lateness p99 %.3f ms is over %.1f ms in each of %d open-loop phases", late.quantile(0.99), maxLateP99Ms, attempt)
			break
		}
		run.drv.decode(timed)
		discarded = append(discarded, timed...)
	}
	res.phase("open_loop", &mark)
	sat, satWall := run.drv.closedLoop(mix.next, cfg.conns, closedDur)
	res.phase("closed_loop", &mark)
	after := run.statsDocs()
	run.drv.decode(timed)
	run.drv.decode(sat)
	all := append(append(discarded, timed...), sat...)

	// Latency metrics come from the open-loop phase only.
	lat := classLatencies(timed)
	for c := opClass(0); c < numClasses; c++ {
		res.Metrics[classNames[c]+"_p50_ms"] = lat[c].p50()
		res.Samples[classNames[c]] = len(lat[c])
		if p99, err := lat[c].p99(); err == nil {
			res.Metrics["client."+classNames[c]+"_p99_ms"] = p99
		} else {
			res.Absent["client."+classNames[c]+"_p99_ms"] = err.Error()
		}
	}
	res.Samples["closed_loop"] = len(sat)
	res.Metrics["sat_ops_s"] = float64(len(sat)) / satWall.Seconds()

	run.counterMetrics(before, after, len(all))
	res.Attempted += len(all)
	run.checkOnline(all)
	run.checkSample()
	writes := 0
	for _, s := range run.sess {
		writes += s.acked
	}
	if writes > 0 {
		res.Metrics["wal.bytes_per_write"] = float64(dirBytes(run.tier.walDir)) / float64(writes)
	}
	res.phase("verify", &mark)
	if cfg.trace {
		run.hopProbe()
		res.phase("hop_probe", &mark)
	}

	var routerRSS, workerRSS float64
	if !w.Router {
		// The durability check kills the worker: its peak RSS is the
		// measured one, the restarted life's is not.
		workerRSS = run.checkDurability()
		run.tier.stop(false)
	} else {
		routerRSS, workerRSS = run.tier.stop(false)
		res.Metrics["router.peak_rss_mb"] = routerRSS
	}
	run.tier = nil
	res.phase("durability_and_stop", &mark)
	res.Metrics["server.peak_rss_mb"] = workerRSS
	res.Metrics["peak_rss_mb"] = routerRSS + workerRSS

	// The remaining set-ups come after the measurement, so that setup_s and
	// open_p50_ms sample the machine at both ends of the run: its speed
	// drifts by a tenth over tens of seconds, and set-ups done back to back
	// would all see one state of it.
	for i := 1; i < w.Setups; i++ {
		if err := run.setUp(dir, i); err != nil {
			return nil, err
		}
		run.tier.stop(true)
		run.tier = nil
	}
	res.phase("setup", &mark)
	res.Metrics["setup_s"] = run.setups.p50()
	res.Metrics["open_p50_ms"] = run.open.p50()
	res.Samples["open"] = len(run.open)
	res.Samples["setup"] = len(run.setups)
	res.End = time.Now()
	return res, nil
}

// setUp starts the tier on a fresh WAL directory and opens every session,
// timing the whole and each open.
func (run *servingRun) setUp(dir string, i int) (err error) {
	start := time.Now()
	sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return err
	}
	if run.tier, err = startTier(run.w, run.cfg.binDir, sub, run.client, run.cfg.cpus); err != nil {
		return err
	}
	run.res.addrs = append(run.res.addrs, run.tier.addrs()...)
	run.drv = newDriver(run.client, run.tier.front(), run.sess, nil)
	if err := run.populate(); err != nil {
		return err
	}
	run.setups = append(run.setups, time.Since(start).Seconds())
	return nil
}

// openLoopPhase runs one open-loop phase of length dur. A traced run spends
// half of it untraced and half traced: the difference of the two read
// medians is what tracing costs.
func (run *servingRun) openLoopPhase(mix *mixer, dur time.Duration, tr *tracer) ([]opResult, error) {
	if tr == nil {
		return run.drv.openLoop(mix.schedule(run.w.Rate, dur), run.cfg.conns)
	}
	plain, err := run.drv.openLoop(mix.schedule(run.w.Rate, dur/2), run.cfg.conns)
	if err != nil {
		return nil, err
	}
	run.drv.tr = tr
	traced, err := run.drv.openLoop(mix.schedule(run.w.Rate, dur/2), run.cfg.conns)
	run.drv.tr = nil
	if err != nil {
		return nil, err
	}
	if p, t := classLatencies(plain)[classRead].p50(), classLatencies(traced)[classRead].p50(); p > 0 {
		run.res.Metrics["harness.trace_overhead_share"] = (t - p) / p
	}
	return append(plain, traced...), nil
}

func classLatencies(results []opResult) [numClasses]samples {
	var out [numClasses]samples
	for _, r := range results {
		if r.err == "" {
			out[r.op.class] = append(out[r.op.class], r.ms)
		}
	}
	return out
}

// populate opens every session, one at a time, and checks each opening
// answer set against the oracle.
func (run *servingRun) populate() error {
	for _, s := range run.sess {
		*s = clientSession{in: s.in, targets: s.targets, queries: s.queries}
		body := jsonBody(map[string]string{"app": "company-control", "facts": s.in.FactsText, "assignId": s.in.ID})
		start := time.Now()
		status, data, err := run.drv.roundTrip(http.MethodPost, run.drv.front+"/reason", body)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		run.res.Attempted++
		if err != nil {
			return fmt.Errorf("opening session %s: %w", s.in.ID, err)
		}
		var r readReply
		if status != http.StatusOK || json.Unmarshal(data, &r) != nil {
			return fmt.Errorf("opening session %s: status %d: %.200s", s.in.ID, status, data)
		}
		run.open = append(run.open, ms)
		ref, _ := run.orc.session(s.in)
		if r.Session != s.in.ID || hashAnswers(r.Answers) != ref.hash[0] {
			run.res.fail(1, "open %s: %d answers differ from the oracle's %d", s.in.ID, len(r.Answers), len(ref.answers[0]))
		}
	}
	return nil
}

// checkOnline compares every timed response with the oracle: answer sets by
// epoch parity (each acknowledged write toggles the edge), explanations of
// opening answers (which no write changes) by text.
func (run *servingRun) checkOnline(results []opResult) {
	want := map[[2]int]uint64{}
	for _, r := range results {
		s := run.sess[r.op.sess]
		if r.err != "" {
			run.res.fail(1, "%s %s: %s", classNames[r.op.class], s.in.ID, r.err)
			continue
		}
		ref, _ := run.orc.session(s.in)
		if r.op.class == classExplain {
			key := [2]int{r.op.sess, r.op.target}
			h, ok := want[key]
			if !ok {
				e, err := run.orc.explanation(ref, s.targets[r.op.target])
				if err != nil {
					run.res.fail(1, "oracle cannot explain %s in %s: %v", s.targets[r.op.target], s.in.ID, err)
					continue
				}
				h = hashExplanation(e.Text, e.Deterministic)
				want[key] = h
			}
			if r.hash != h || r.flagged {
				run.res.fail(1, "explain %s %s: text differs from the oracle's (tier says complete=%v)", s.in.ID, s.targets[r.op.target], !r.flagged)
			}
			continue
		}
		state := int(r.epoch % 2)
		if r.hash != ref.hash[state] && !(s.unsure && r.hash == ref.hash[1-state]) {
			run.res.fail(1, "%s %s at epoch %d: answers differ from the oracle's", classNames[r.op.class], s.in.ID, r.epoch)
		}
	}
}

// checkSample replays 20 seeded sessions' acknowledged writes (sessions that
// took any come first) through the
// sequential oracle and requires the tier's final answers (in order) and a
// handful of explanations to be byte-equal, with every constant of each
// proof present in its text.
func (run *servingRun) checkSample() {
	rng := rand.New(rand.NewSource(run.cfg.seed ^ 0xc4ec))
	picks := rng.Perm(len(run.sess))
	// Sessions that took writes first: replaying none proves little.
	sort.SliceStable(picks, func(a, b int) bool {
		return run.sess[picks[a]].acked > 0 && run.sess[picks[b]].acked == 0
	})
	if len(picks) > 20 {
		picks = picks[:20]
	}
	for _, i := range picks {
		s := run.sess[i]
		ref, _ := run.orc.session(s.in)
		if s.unsure {
			continue // already counted as a failed write
		}
		final, err := run.orc.replay(ref, s.acked)
		if err != nil {
			run.res.fail(1, "oracle replay of %s: %v", s.in.ID, err)
			continue
		}
		want := renderAnswers(final)
		run.res.Attempted++
		status, data, err := run.drv.roundTrip(http.MethodPost, run.drv.front+"/reason", jsonBody(map[string]string{"session": s.in.ID}))
		var r readReply
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &r) != nil {
			run.res.fail(1, "final read of %s: status %d err %v", s.in.ID, status, err)
			continue
		}
		if r.Epoch < s.lastEpoch || fmt.Sprint(r.Answers) != fmt.Sprint(want) {
			run.res.fail(1, "final read of %s: epoch %d (acknowledged %d), %d answers against the oracle's %d", s.in.ID, r.Epoch, s.lastEpoch, len(r.Answers), len(want))
			continue
		}
		// The last few answers include any the write edge derived.
		for _, a := range want[max(0, len(want)-3):] {
			run.res.Attempted++
			ref, err := run.orc.pipe.ExplainQuery(final, queryOf(a))
			if err != nil {
				run.res.fail(1, "oracle cannot explain %s: %v", a, err)
				continue
			}
			status, data, err := run.drv.roundTrip(http.MethodGet, run.drv.front+"/explain?session="+s.in.ID+"&query="+escapeQuery(a), nil)
			var e explainReply
			if err != nil || status != http.StatusOK || json.Unmarshal(data, &e) != nil {
				run.res.fail(1, "explain %s in %s: status %d err %v", a, s.in.ID, status, err)
				continue
			}
			missing := verbalizer.MissingConstants(e.Text, ref.Proof.Constants())
			if e.Text != ref.Text || e.Deterministic != ref.Deterministic || len(missing) > 0 || ref.Verify() != nil {
				run.res.fail(1, "explain %s in %s: differs from the oracle or omits constants %v", a, s.in.ID, missing)
			}
		}
	}
}

// checkDurability kills the (only) worker without warning, restarts it on
// the same WAL directory, and requires every session to answer at an epoch
// no older than its last acknowledged one with the oracle's facts. The OS
// page cache survives a process kill, so this checks replay, not the device.
// It returns the killed worker's peak RSS.
func (run *servingRun) checkDurability() float64 {
	rss := run.tier.workers[0].stop(true)
	lost := 0
	if err := run.tier.startWorker(0); err != nil {
		run.res.fail(len(run.sess), "restart after kill: %v", err)
		run.res.Metrics["harness.durability_lost_writes"] = float64(len(run.sess))
		return rss
	}
	run.res.addrs = append(run.res.addrs, run.tier.addrs()...)
	front := run.tier.front()
	for _, s := range run.sess {
		run.res.Attempted++
		ref, _ := run.orc.session(s.in)
		status, data, err := run.drv.roundTrip(http.MethodPost, front+"/reason", jsonBody(map[string]string{"session": s.in.ID}))
		var r readReply
		switch {
		case err != nil || status != http.StatusOK || json.Unmarshal(data, &r) != nil:
			lost += max(s.acked, 1)
			run.res.fail(1, "after kill: session %s unreadable: status %d err %v", s.in.ID, status, err)
		case r.Epoch < s.lastEpoch:
			lost += int(s.lastEpoch - r.Epoch)
			run.res.fail(1, "after kill: session %s at epoch %d, acknowledged %d", s.in.ID, r.Epoch, s.lastEpoch)
		case hashAnswers(r.Answers) != ref.hash[r.Epoch%2] && !s.unsure:
			lost++
			run.res.fail(1, "after kill: session %s at epoch %d has facts the oracle does not", s.in.ID, r.Epoch)
		}
	}
	run.res.Metrics["harness.durability_lost_writes"] = float64(lost)
	run.res.Samples["durability_sessions"] = len(run.sess)
	return rss
}

// statsDocs fetches /stats from every worker and, if there is one, the
// router (under the key "router").
func (run *servingRun) statsDocs() map[string]any {
	docs := map[string]any{}
	for _, p := range run.tier.workers {
		if d, err := fetchStats(run.client, p.url); err == nil {
			docs[p.name] = d
		}
	}
	if run.tier.router != nil {
		if d, err := fetchStats(run.client, run.tier.router.url); err == nil {
			docs["router"], _ = d.(map[string]any)["router"]
		}
	}
	return docs
}

// counterMetrics turns /stats deltas into per-layer counters. Keys are
// looked up leniently; one that is missing is reported absent.
func (run *servingRun) counterMetrics(before, after map[string]any, touches int) {
	res := run.res
	delta := func(name string, fromRouter bool, path ...string) (float64, bool) {
		var sum float64
		found := false
		for k, doc := range after {
			if (k == "router") != fromRouter {
				continue
			}
			a, ok1 := lookup(doc, path...)
			b, ok2 := lookup(before[k], path...)
			if !ok1 || !ok2 {
				res.Absent[name] = fmt.Sprintf("/stats key %v not found", path)
				return 0, false
			}
			sum += a - b
			found = true
		}
		return sum, found
	}
	set := func(name string, fromRouter bool, path ...string) {
		if v, ok := delta(name, fromRouter, path...); ok {
			res.Metrics[name] = v
		}
	}
	set("server.restores", false, "writePath", "restores")
	set("server.snapshot_restores", false, "writePath", "snapshotRestores")
	set("server.snapshot_writes", false, "writePath", "snapshotWrites")
	set("server.compactions", false, "writePath", "compactions")
	if v, ok := res.Metrics["server.restores"]; ok && touches > 0 {
		res.Metrics["server.restores_per_touch"] = v / float64(touches)
	}
	hits, ok1 := delta("server.session_hit_share", false, "sessions", "hits")
	misses, ok2 := delta("server.session_hit_share", false, "sessions", "misses")
	if ok1 && ok2 && hits+misses > 0 {
		res.Metrics["server.session_hit_share"] = hits / (hits + misses)
	}
	if run.tier.router == nil {
		return
	}
	set("router.retried", true, "retried")
	set("router.failovers", true, "failovers")
	lh, ok1 := delta("router.location_hit_share", true, "locationCache", "hits")
	lm, ok2 := delta("router.location_hit_share", true, "locationCache", "misses")
	if ok1 && ok2 && lh+lm > 0 {
		res.Metrics["router.location_hit_share"] = lh / (lh + lm)
	}
}

// hopProbe measures what the router adds: the same session read is sent
// through the router and then straight to the worker that owns the session,
// one request at a time, after a routed warm-up read has made the session
// resident. Without a router only the direct figure is taken.
func (run *servingRun) hopProbe() {
	ring := router.NewRing(0)
	owners := map[string]*proc{}
	for _, p := range run.tier.workers {
		ring.Add(p.url)
		owners[p.url] = p
	}
	rng := rand.New(rand.NewSource(run.cfg.seed ^ 0x40b))
	var routed, direct samples
	timedRead := func(base string, s *clientSession) (float64, bool) {
		start := time.Now()
		status, _, err := run.drv.roundTrip(http.MethodPost, base+"/reason", jsonBody(map[string]string{"session": s.in.ID}))
		run.res.Attempted++
		if err != nil || status != http.StatusOK {
			run.res.fail(1, "hop probe read of %s: status %d err %v", s.in.ID, status, err)
			return 0, false
		}
		return float64(time.Since(start)) / float64(time.Microsecond), true
	}
	for i := 0; i < max(20, int(300*run.cfg.scale)); i++ {
		s := run.sess[rng.Intn(len(run.sess))]
		owner, _ := ring.Lookup(s.in.ID)
		front := run.tier.front()
		if _, ok := timedRead(front, s); !ok { // warm-up: restores if evicted
			continue
		}
		if us, ok := timedRead(front, s); ok {
			routed = append(routed, us)
		}
		if us, ok := timedRead(owners[owner].url, s); ok {
			direct = append(direct, us)
		}
	}
	run.res.Samples["hop_pairs"] = len(direct)
	run.res.Metrics["client.direct_read_us"] = direct.p50()
	if run.tier.router != nil {
		run.res.Metrics["router.hop_us"] = routed.p50() - direct.p50()
	}
}

// fsyncProbe is the median microseconds of 100 4 KiB write+fsync pairs in
// dir: what this machine's "durable" costs, recorded with every result.
func fsyncProbe(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us samples
	for i := 0; i < 100; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	return us.p50()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
