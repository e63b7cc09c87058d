package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/database"
	"repro/internal/incremental"
	"repro/internal/lru"
	"repro/internal/mapping"
	"repro/internal/parser"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/synth"
	"repro/internal/wal"
)

// The layer probes replay a workload's generated inputs through each
// layer's public functions in this process, one span per call. They see the
// layers from outside only: timers inside the program are a later change.

// probeInput is one instance the probes replay: a sampled session of a
// serving workload, or a kg_batch graph.
type probeInput struct {
	id       string
	text     string // facts in concrete syntax, as a request carries them
	facts    []ast.Atom
	edgeText string
	edge     []ast.Atom
}

type prober struct {
	w      *workloadSpec
	cfg    *runConfig
	tr     *tracer
	res    *runResult
	pipe   *core.Pipeline
	inputs []probeInput
	dir    string
}

const (
	maxProbeSessions = 64    // sessions replayed per serving workload
	maxProbeAnswers  = 20000 // explanations replayed stage by stage (whole instances, until this many)
)

// probeLoop is how many operations a nanosecond-scale probe times at once.
func (p *prober) probeLoop() int { return max(10000, int(200000*p.cfg.scale)) }

func runLayerProbes(w *workloadSpec, cfg *runConfig, tr *tracer, res *runResult) error {
	mark := time.Now()
	pipe, err := apps.CompanyControl().Pipeline(core.Config{})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.tmpRoot, "probe-"+w.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p := &prober{w: w, cfg: cfg, tr: tr, res: res, pipe: pipe, dir: dir}
	if err := p.loadInputs(); err != nil {
		return err
	}
	steps := []func() error{
		p.probeParser, p.probeCompile, p.probeReason, p.probeStoreAdd, p.probeSmallRun,
		p.probeExplain, p.probeExplainCache, p.probeWritePath, p.probeLRU, p.probeRing,
	}
	if w.Serves > 0 {
		steps = append(steps, p.probeServer)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	res.phase("layer_probes", &mark)
	res.End = time.Now()
	return nil
}

// loadInputs regenerates the workload's inputs from the seed and samples
// the instances to replay.
func (p *prober) loadInputs() error {
	if p.w.Serves == 0 {
		for _, inst := range genKG(p.w, p.cfg.seed, p.cfg.scale)[:3] {
			p.inputs = append(p.inputs, probeInput{
				id:   "kg",
				text: factsText(inst.facts), facts: inst.facts,
				edgeText: inst.edges[0][0].String() + ".", edge: inst.edges[0],
			})
		}
		return nil
	}
	all := genSessions(p.w, scaled(p.w.Sessions, p.cfg.scale), p.cfg.seed)
	rng := rand.New(rand.NewSource(p.cfg.seed ^ 0x9a0be))
	for _, i := range rng.Perm(len(all))[:min(len(all), maxProbeSessions)] {
		in := all[i]
		base, err := parser.Parse(in.FactsText)
		if err != nil {
			return err
		}
		edge, err := parser.Parse(in.WriteFact)
		if err != nil {
			return err
		}
		p.inputs = append(p.inputs, probeInput{id: in.ID, text: in.FactsText, facts: base.Facts, edgeText: in.WriteFact, edge: edge.Facts})
	}
	return nil
}

func (p *prober) set(name string, v float64) { p.res.Metrics[name] = v }

func (p *prober) probeParser() error {
	facts := 0
	var total time.Duration
	for _, in := range p.inputs {
		var err error
		total += p.tr.time("parser.parse", -1, p.tr.request(), func() { _, err = parser.Parse(in.text) })
		if err != nil {
			return err
		}
		facts += len(in.facts)
	}
	p.set("parser.us_per_fact", us(total)/float64(facts))
	return nil
}

func (p *prober) probeCompile() error {
	var total time.Duration
	const n = 5
	for i := 0; i < n; i++ {
		var err error
		total += p.tr.time("core.compile", -1, p.tr.request(), func() { _, err = apps.CompanyControl().Pipeline(core.Config{}) })
		if err != nil {
			return err
		}
	}
	p.set("core.compile_ms", ms(total)/n)
	return nil
}

// probeReason opens every sampled instance the way POST /reason does and
// splits each run into the two phases the engine itself reports.
func (p *prober) probeReason() error {
	var reason, load, eval, steps, rounds float64
	for _, in := range p.inputs {
		req := p.tr.request()
		root := p.tr.begin("replay.open", -1, req)
		start := time.Now()
		id := p.tr.begin("core.reason", root, req)
		res, err := p.pipe.Reason(in.facts...)
		p.tr.end(id)
		d := time.Since(start)
		p.tr.end(root)
		if err != nil {
			return err
		}
		loadD := time.Duration(res.LoadSeconds * float64(time.Second))
		p.tr.add("database.load", start, loadD, id, req)
		p.tr.add("chase.eval", start.Add(loadD), time.Duration(res.EvalSeconds*float64(time.Second)), id, req)
		reason += d.Seconds()
		load += res.LoadSeconds
		eval += res.EvalSeconds
		steps += float64(len(res.Steps))
		rounds += float64(res.Rounds)
	}
	n := float64(len(p.inputs))
	p.set("core.reason_s", reason/n)
	p.set("database.load_s", load/n)
	p.set("chase.eval_s", eval/n)
	p.set("chase.steps", steps/n)
	p.set("chase.rounds", rounds/n)
	p.set("harness.reason_closure_share", (load+eval)/reason)
	return nil
}

func (p *prober) probeStoreAdd() error {
	in := p.inputs[0]
	reps := max(1, 20000/len(in.facts))
	var err error
	d := p.tr.time("database.add_loop", -1, p.tr.request(), func() {
		for r := 0; r < reps && err == nil; r++ {
			store := database.NewStore()
			for _, f := range in.facts {
				if _, _, err = store.Add(f, true); err != nil {
					break
				}
			}
		}
	})
	if err != nil {
		return err
	}
	p.set("database.add_ns_per_fact", float64(d)/float64(reps*len(in.facts)))
	return nil
}

// probeSmallRun times the chase alone on one session-sized instance, the
// regime where index build cost rather than join throughput decides.
func (p *prober) probeSmallRun() error {
	small := synth.ControlChainJoint(12, 3, p.cfg.seed).Facts
	const n = 30
	var total time.Duration
	for i := 0; i < n; i++ {
		var err error
		total += p.tr.time("chase.small_run", -1, p.tr.request(), func() {
			_, err = chase.Run(p.pipe.Program(), chase.Options{ExtraFacts: small})
		})
		if err != nil {
			return err
		}
	}
	p.set("chase.small_run_us", us(total)/n)
	return nil
}

// probeExplain replays explanations stage by stage (every answer of each
// sampled instance, up to maxProbeAnswers), then times ExplainAll on fresh
// results of the same instances and checks that the stages add up to it.
func (p *prober) probeExplain() error {
	var proofSteps, segments float64
	var replayed int
	// Stage times are summed from the calls themselves, not from the spans
	// around them: four spans per answer cost about as much as the cheapest
	// stage, and that bookkeeping is not the layers' time.
	var extract, mapped, render, renderDet, all time.Duration
	limit := max(200, int(maxProbeAnswers*p.cfg.scale))
	for _, in := range p.inputs {
		if replayed >= limit {
			break
		}
		res, err := p.pipe.Reason(in.facts...)
		if err != nil {
			return err
		}
		for _, id := range res.Answers() {
			req := p.tr.request()
			root := p.tr.begin("replay.explain", -1, req)
			var proof *chase.Proof
			var m *mapping.Mapping
			extract += p.tr.time("chase.extract_proof", root, req, func() { proof, err = res.ExtractProof(id) })
			if err == nil {
				mapped += p.tr.time("mapping.map", root, req, func() { m, err = mapping.Map(proof, p.pipe.Templates()) })
			}
			if err == nil {
				render += p.tr.time("template.render", root, req, func() { _, err = m.Explanation() })
			}
			if err == nil {
				renderDet += p.tr.time("template.render_det", root, req, func() { _, err = m.DeterministicExplanation() })
			}
			p.tr.end(root)
			if err != nil {
				return err
			}
			proofSteps += float64(proof.Size())
			segments += float64(len(m.Segments))
			replayed++
		}
		fresh, err := p.pipe.Reason(in.facts...)
		if err != nil {
			return err
		}
		all += p.tr.time("core.explain_all", -1, p.tr.request(), func() { _, err = p.pipe.ExplainAll(fresh) })
		if err != nil {
			return err
		}
	}
	n := float64(replayed)
	p.set("chase.extract_proof_us", us(extract)/n)
	p.set("mapping.map_us", us(mapped)/n)
	p.set("template.render_us", us(render)/n)
	p.set("chase.proof_steps_mean", proofSteps/n)
	p.set("mapping.segments_per_proof", segments/n)
	p.set("core.explain_all_s", meanUs(p.tr.byName(), "core.explain_all")/1e6)
	p.set("harness.explain_closure_share", (extract+mapped+render+renderDet).Seconds()/all.Seconds())
	return nil
}

// probeExplainCache measures the explanation memo the way the server
// configures it: first call builds, second call hits.
func (p *prober) probeExplainCache() error {
	pipe, err := apps.CompanyControl().Pipeline(core.Config{ExplanationCacheSize: server.DefaultMaxExplanations})
	if err != nil {
		return err
	}
	res, err := pipe.Reason(p.inputs[0].facts...)
	if err != nil {
		return err
	}
	answers := res.Answers()
	if len(answers) > 500 {
		answers = answers[:500]
	}
	for _, id := range answers {
		req := p.tr.request()
		p.tr.time("core.explain_cold", -1, req, func() { _, err = pipe.ExplainFact(res, id) })
		if err != nil {
			return err
		}
		p.tr.time("core.explain_warm", -1, req, func() { _, err = pipe.ExplainFact(res, id) })
		if err != nil {
			return err
		}
	}
	by := p.tr.byName()
	p.set("core.explain_cold_us", meanUs(by, "core.explain_cold"))
	p.set("core.explain_warm_us", meanUs(by, "core.explain_warm"))
	cs := pipe.CacheStats().Explanations
	if cs.Hits+cs.Misses > 0 {
		p.set("core.explain_cache_hit_share", float64(cs.Hits)/float64(cs.Hits+cs.Misses))
	}
	return nil
}

// probeWritePath follows a durable write down the layers: the maintainer's
// repair alone, then the group committer with a WAL under it, then what a
// restore does with the files that leaves behind.
func (p *prober) probeWritePath() error {
	in := p.inputs[0]
	const pairs = 20

	m, err := p.pipe.Maintain(in.facts...)
	if err != nil {
		return err
	}
	var overDeleted float64
	for i := 0; i < pairs; i++ {
		req := p.tr.request()
		var st incremental.UpdateStats
		p.tr.time("incremental.add", -1, req, func() { _, _, err = m.Update(in.edge, nil) })
		if err != nil {
			return err
		}
		p.tr.time("incremental.retract", -1, req, func() { _, st, err = m.Update(nil, in.edge) })
		if err != nil {
			return err
		}
		overDeleted += float64(st.OverDeleted)
	}
	by := p.tr.byName()
	p.set("incremental.add_us", meanUs(by, "incremental.add"))
	p.set("incremental.retract_us", meanUs(by, "incremental.retract"))
	p.set("incremental.overdeleted_per_retract", overDeleted/pairs)

	// Committer over a WAL, one writer, synchronous, default fsync policy.
	walPath := filepath.Join(p.dir, "probe.wal")
	hdr := wal.Header{App: apps.NameCompanyControl, Program: "benchmark-probe", Base: in.facts}
	l, err := wal.Create(walPath, hdr, wal.SyncGroup)
	if err != nil {
		return err
	}
	// parent and req are written before Submit and read by the commit
	// leader inside it; the committer's queue orders the two.
	parent, req := -1, 0
	cmt := core.NewCommitter(core.CommitterConfig{
		Standup: func(ctx context.Context) (*incremental.Maintainer, error) {
			return p.pipe.MaintainContext(ctx, in.facts...)
		},
		OnLog: func(seq uint64, add, retract []ast.Atom) error {
			var err error
			p.tr.time("wal.append", parent, req, func() { err = l.Append(wal.Delta{Seq: seq, Add: add, Retract: retract}) })
			if err == nil {
				p.tr.time("wal.sync", parent, req, func() { err = l.Sync() })
			}
			return err
		},
	})
	submit := func(i int) (*core.CommitResult, error) {
		if i%2 == 0 {
			return cmt.Submit(context.Background(), in.edge, nil, false)
		}
		return cmt.Submit(context.Background(), nil, in.edge, false)
	}
	// The first write stands the maintainer up (one full chase), as on the
	// server; it is made before measuring, with its undo.
	parent = p.tr.begin("core.commit_standup", -1, 0)
	for i := 0; i < 2 && err == nil; i++ {
		_, err = submit(i)
	}
	p.tr.end(parent)
	if err != nil {
		return err
	}
	sizeBefore := fileSize(walPath)
	var batch float64
	for i := 0; i < 2*pairs; i++ {
		req = p.tr.request()
		root := p.tr.begin("replay.write", -1, req)
		parent = p.tr.begin("core.commit_submit", root, req)
		cr, err := submit(i)
		p.tr.end(parent)
		p.tr.end(root)
		if err != nil {
			return err
		}
		batch += float64(cr.Batch)
	}
	cmt.CloseWait()
	if err := l.Close(); err != nil {
		return err
	}
	by = p.tr.byName()
	p.set("core.commit_submit_us", meanUs(by, "core.commit_submit"))
	p.set("core.commit_mean_batch", batch/(2*pairs))
	p.set("wal.append_us", meanUs(by, "wal.append"))
	p.set("wal.sync_us", meanUs(by, "wal.sync"))
	p.set("wal.bytes_per_delta", float64(fileSize(walPath)-sizeBefore)/(2*pairs))

	// Restore side: replay the log, reopen it for appending.
	const reps = 10
	deltas := 0
	for i := 0; i < reps; i++ {
		req := p.tr.request()
		var rec *wal.Recovered
		p.tr.time("wal.replay", -1, req, func() { rec, err = wal.Replay(walPath) })
		if err != nil {
			return err
		}
		deltas = len(rec.Deltas)
		var reopened *wal.Log
		p.tr.time("wal.open_append", -1, req, func() { reopened, err = rec.OpenAppend(wal.SyncGroup) })
		if err != nil {
			return err
		}
		if err := reopened.Close(); err != nil {
			return err
		}
	}
	by = p.tr.byName()
	p.set("wal.replay_us_per_delta", meanUs(by, "wal.replay")/float64(max(deltas, 1)))
	p.set("wal.open_append_us", meanUs(by, "wal.open_append"))

	// Checkpoint side: encode the live engine, write and read the envelope,
	// rebuild the engine.
	snapPath := filepath.Join(p.dir, "probe.snap")
	for i := 0; i < reps; i++ {
		req := p.tr.request()
		var payload []byte
		p.tr.time("chase.encode_state", -1, req, func() { payload, err = m.EncodeState() })
		if err != nil {
			return err
		}
		p.tr.time("snapshot.write", -1, req, func() {
			err = snapshot.Write(snapPath, snapshot.Header{App: hdr.App, Program: hdr.Program, Epoch: 1}, payload)
		})
		if err != nil {
			return err
		}
		p.tr.time("snapshot.read", -1, req, func() { _, payload, err = snapshot.Read(snapPath) })
		if err != nil {
			return err
		}
		p.tr.time("chase.restore_live", -1, req, func() { _, err = chase.RestoreLive(p.pipe.Program(), chase.Options{}, payload) })
		if err != nil {
			return err
		}
	}
	by = p.tr.byName()
	p.set("chase.encode_state_us", meanUs(by, "chase.encode_state"))
	p.set("snapshot.write_us", meanUs(by, "snapshot.write"))
	p.set("snapshot.read_us", meanUs(by, "snapshot.read"))
	p.set("snapshot.bytes", float64(fileSize(snapPath)))
	p.set("chase.restore_live_us", meanUs(by, "chase.restore_live"))
	return nil
}

func (p *prober) probeLRU() error {
	const capacity = 4096
	c := lru.New[int, int](capacity)
	for i := 0; i < capacity; i++ {
		c.Put(i, i)
	}
	rng := rand.New(rand.NewSource(p.cfg.seed))
	n := p.probeLoop()
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(capacity)
	}
	get := p.tr.time("lru.get_loop", -1, p.tr.request(), func() {
		for _, k := range keys {
			c.Get(k)
		}
	})
	put := p.tr.time("lru.put_evict_loop", -1, p.tr.request(), func() {
		for i := range keys {
			c.Put(capacity+i, i) // always a new key at capacity: one eviction each
		}
	})
	p.set("lru.get_ns", float64(get)/float64(n))
	p.set("lru.put_evict_ns", float64(put)/float64(n))
	return nil
}

func (p *prober) probeRing() error {
	ring := router.NewRing(0)
	ring.Add("http://127.0.0.1:1")
	ring.Add("http://127.0.0.1:2")
	n := p.probeLoop()
	d := p.tr.time("router.ring_lookup_loop", -1, p.tr.request(), func() {
		for i := 0; i < n; i++ {
			ring.Lookup(p.inputs[i%len(p.inputs)].id)
		}
	})
	p.set("router.ring_lookup_ns", float64(d)/float64(n))
	return nil
}

// probeServer drives a server's handler directly, with no socket between:
// what is left of a request once HTTP and the network are taken away. Half
// the sampled sessions fit the session cache; touching the other half
// restores them.
func (p *prober) probeServer() error {
	inputs := p.inputs[:min(len(p.inputs), 32)]
	resident := len(inputs) / 2
	if resident == 0 {
		return nil
	}
	srv, err := server.NewWithOptions(server.Options{
		WALDir:      filepath.Join(p.dir, "server-wal"),
		MaxSessions: resident,
		Log:         log.New(io.Discard, "", 0),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	call := func(span, method, target string, body []byte) error {
		var rd io.Reader
		if body != nil {
			rd = strings.NewReader(string(body))
		}
		r := httptest.NewRequest(method, target, rd)
		w := httptest.NewRecorder()
		p.tr.time(span, -1, p.tr.request(), func() { h.ServeHTTP(w, r) })
		p.res.Attempted++
		if w.Code != http.StatusOK {
			p.res.fail(1, "%s: status %d: %.200s", span, w.Code, w.Body.String())
			return fmt.Errorf("%s: status %d", span, w.Code)
		}
		return nil
	}
	for _, in := range inputs {
		body := jsonBody(map[string]string{"app": apps.NameCompanyControl, "facts": in.text, "assignId": in.id})
		if err := call("server.handler.open", http.MethodPost, "/reason", body); err != nil {
			return err
		}
	}
	// The sessions opened last are the resident ones.
	for _, in := range inputs[len(inputs)-resident:] {
		read := jsonBody(map[string]string{"session": in.id})
		for i := 0; i < 5; i++ {
			if err := call("server.handler.read", http.MethodPost, "/reason", read); err != nil {
				return err
			}
		}
		res, err := p.pipe.Reason(in.facts...)
		if err != nil {
			return err
		}
		for _, a := range renderAnswers(res)[:min(len(res.Answers()), 5)] {
			if err := call("server.handler.explain", http.MethodGet, "/explain?session="+in.id+"&query="+escapeQuery(a), nil); err != nil {
				return err
			}
		}
		add := jsonBody(map[string]string{"session": in.id, "add": in.edgeText})
		retract := jsonBody(map[string]string{"session": in.id, "retract": in.edgeText})
		// The first pair stands the session's maintainer up and is timed
		// under its own name.
		for i, span := range []string{"server.handler.first_write", "server.handler.first_write", "server.handler.write", "server.handler.write"} {
			body := add
			if i%2 == 1 {
				body = retract
			}
			if err := call(span, http.MethodPost, "/facts", body); err != nil {
				return err
			}
		}
	}
	for _, in := range inputs[:len(inputs)-resident] {
		if err := call("server.restore", http.MethodPost, "/reason", jsonBody(map[string]string{"session": in.id})); err != nil {
			return err
		}
	}
	by := p.tr.byName()
	p.set("server.handler_read_us", meanUs(by, "server.handler.read"))
	p.set("server.handler_explain_us", meanUs(by, "server.handler.explain"))
	p.set("server.handler_write_us", meanUs(by, "server.handler.write"))
	p.set("server.restore_us", meanUs(by, "server.restore"))
	if direct, ok := p.res.Metrics["client.direct_read_us"]; ok {
		p.set("server.http_overhead_us", direct-meanUs(by, "server.handler.read"))
	}
	return nil
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
