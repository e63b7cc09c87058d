// Package core ties the paper's components into the automated pipeline of
// its Section 4.4: given a rule-based Knowledge Graph application (a Vadalog
// program) and a domain glossary, it runs the preventive structural
// analysis, generates and enhances the explanation templates once, and then
// answers explanation queries for any fact derived by the chase — producing
// fluent, complete natural-language explanations without ever sharing
// instance data with an external service.
//
// This is the package downstream users import; everything below it
// (parser, chase, depgraph, paths, template, enhancer, mapping) is
// replaceable behind this façade.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/database"
	"repro/internal/depgraph"
	"repro/internal/enhancer"
	"repro/internal/glossary"
	"repro/internal/incremental"
	"repro/internal/lru"
	"repro/internal/mapping"
	"repro/internal/parser"
	"repro/internal/paths"
	"repro/internal/template"
	"repro/internal/verbalizer"
)

// Config tunes pipeline construction.
type Config struct {
	// Enhancer rewrites deterministic templates into fluent variants; nil
	// selects the built-in deterministic rewriter. Plug an LLM-backed
	// implementation here if data-confidentiality constraints allow it —
	// note that only rules, never instance data, flow through it.
	Enhancer enhancer.Enhancer
	// SkipEnhancement leaves templates deterministic.
	SkipEnhancement bool
	// Chase options used by Reason.
	Chase chase.Options
	// ResultCacheSize bounds the reasoning-result cache: when positive,
	// Reason memoizes chase results under a canonical fingerprint of
	// (program, options, extra facts), and concurrent identical calls
	// share one chase run (singleflight). 0 disables caching and every
	// Reason call runs its own chase, the pre-cache behavior.
	ResultCacheSize int
	// ExplanationCacheSize bounds the explanation memo: when positive,
	// ExplainFact (and hence Explain, ExplainQuery and ExplainAll)
	// memoizes the finished Explanation per (result, fact). Cached
	// explanations are shared pointers and must be treated as immutable.
	// 0 disables the memo.
	ExplanationCacheSize int
}

// Pipeline is a compiled KG application: program, glossary, structural
// analysis and (enhanced) explanation templates. The compiled artifacts
// are immutable after construction; the optional result and explanation
// caches are internally synchronized, so a Pipeline is safe for concurrent
// Reason and explanation queries over shared or distinct chase results.
type Pipeline struct {
	prog      *ast.Program
	glossary  *glossary.Glossary
	graph     *depgraph.Graph
	analysis  *paths.Analysis
	templates *template.Store
	cfg       Config

	// results caches chase results by request fingerprint; flight
	// deduplicates concurrent identical runs. Both are nil when
	// Config.ResultCacheSize is 0.
	results *lru.Cache[string, *chase.Result]
	flight  *flightGroup
	// sharedRuns counts Reason calls served by another caller's
	// in-flight run.
	sharedRuns atomic.Uint64
	// expl memoizes finished explanations per (result, fact); nil when
	// Config.ExplanationCacheSize is 0.
	expl *lru.Cache[explKey, *Explanation]

	// mntMu guards mnt, the incrementally maintained instance. It stays nil
	// until the first Update; from then on Reason serves the maintained
	// fixpoint and stamps its epoch into the result-cache fingerprint, so a
	// result cached before an update can never answer a request after it.
	mntMu sync.Mutex
	mnt   *incremental.Maintainer
}

// NewPipeline compiles a program and its glossary into a pipeline: it
// validates glossary coverage, builds the dependency graph, runs the
// structural analysis, verbalizes every reasoning path into its
// deterministic template and attaches enhanced variants.
func NewPipeline(prog *ast.Program, g *glossary.Glossary, cfg Config) (*Pipeline, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid program: %w", err)
	}
	if errs := g.Covers(prog); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("core: glossary does not cover program: %s", strings.Join(msgs, "; "))
	}
	graph := depgraph.New(prog)
	analysis := paths.Analyze(graph)
	store, err := template.Generate(analysis, g)
	if err != nil {
		return nil, fmt.Errorf("core: template generation: %w", err)
	}
	if !cfg.SkipEnhancement {
		e := cfg.Enhancer
		if e == nil {
			e = &enhancer.Fluent{Variants: 2, Seed: 1}
		}
		if _, err := enhancer.EnhanceStore(store, e); err != nil {
			return nil, fmt.Errorf("core: template enhancement: %w", err)
		}
	}
	p := &Pipeline{
		prog:      prog,
		glossary:  g,
		graph:     graph,
		analysis:  analysis,
		templates: store,
		cfg:       cfg,
	}
	if cfg.ResultCacheSize > 0 {
		p.results = lru.New[string, *chase.Result](cfg.ResultCacheSize)
		p.flight = newFlightGroup()
	}
	if cfg.ExplanationCacheSize > 0 {
		p.expl = lru.New[explKey, *Explanation](cfg.ExplanationCacheSize)
	}
	return p, nil
}

// NewPipelineFromSource parses the program and glossary texts and compiles
// them.
func NewPipelineFromSource(progSrc, glossarySrc string, cfg Config) (*Pipeline, error) {
	prog, err := parser.Parse(progSrc)
	if err != nil {
		return nil, fmt.Errorf("core: program: %w", err)
	}
	g, err := glossary.Parse(glossarySrc)
	if err != nil {
		return nil, fmt.Errorf("core: glossary: %w", err)
	}
	return NewPipeline(prog, g, cfg)
}

// Program returns the compiled program.
func (p *Pipeline) Program() *ast.Program { return p.prog }

// Glossary returns the domain glossary.
func (p *Pipeline) Glossary() *glossary.Glossary { return p.glossary }

// Graph returns the dependency graph.
func (p *Pipeline) Graph() *depgraph.Graph { return p.graph }

// Analysis returns the structural analysis (reasoning paths).
func (p *Pipeline) Analysis() *paths.Analysis { return p.analysis }

// Templates returns the explanation template store.
func (p *Pipeline) Templates() *template.Store { return p.templates }

// Reason runs the chase over the program's facts plus the given extra
// extensional facts, returning the saturated result with full provenance.
//
// With Config.ResultCacheSize > 0 identical requests (same program, same
// options, same extra facts in the same order) are served from a bounded
// cache, and concurrent identical misses share a single chase run. Cached
// results are shared pointers; a chase Result is immutable after Run, so
// sharing is safe, and the cached bytes are exactly the uncached bytes
// (the chase result of a request is deterministic).
func (p *Pipeline) Reason(extra ...ast.Atom) (*chase.Result, error) {
	return p.ReasonContext(context.Background(), extra...)
}

// ReasonContext is Reason under a context: the chase run is cancellable at
// its round and rule boundaries and returns chase.ErrCanceled/ErrDeadline
// when interrupted. Cancellation composes with the caches: a canceled run is
// never written to the result cache, a waiter sharing an in-flight run whose
// leader is canceled re-runs the chase under its own (still live) context,
// and a waiter whose own context dies returns its own typed error without
// disturbing the leader.
func (p *Pipeline) ReasonContext(ctx context.Context, extra ...ast.Atom) (*chase.Result, error) {
	opts := p.cfg.Chase
	opts.ExtraFacts = append(append([]ast.Atom{}, opts.ExtraFacts...), extra...)
	run, epoch := p.reasonRun(ctx, opts)
	if p.results == nil {
		return run()
	}
	key := reasonFingerprint(p.prog, opts, epoch)
	if res, ok := p.results.Get(key); ok {
		return res, nil
	}
	res, err, shared := p.flight.do(ctx, key, func() (*chase.Result, error) {
		// Double-check under the flight lock-out: a previous leader may
		// have populated the cache between our miss and becoming leader.
		if res, ok := p.results.Get(key); ok {
			return res, nil
		}
		res, err := run()
		if err == nil {
			p.results.Put(key, res)
		}
		return res, err
	})
	if shared {
		p.sharedRuns.Add(1)
	}
	return res, err
}

// reasonRun picks how a Reason request is computed. Before the first Update
// it is a plain chase over the compiled program (epoch 0, the pre-update
// fingerprint). After an Update the maintained instance is authoritative: a
// request with no extra facts snapshots it directly, and a request with
// extra facts re-chases over the maintained base plus the extras. Either
// way the maintainer's epoch joins the cache fingerprint.
func (p *Pipeline) reasonRun(ctx context.Context, opts chase.Options) (func() (*chase.Result, error), uint64) {
	p.mntMu.Lock()
	defer p.mntMu.Unlock()
	if p.mnt == nil {
		prog := p.prog
		return func() (*chase.Result, error) { return chase.RunContext(ctx, prog, opts) }, 0
	}
	m := p.mnt
	if len(opts.ExtraFacts) == 0 {
		return m.Result, m.Epoch()
	}
	base := m.BaseFacts()
	prog := *p.prog
	prog.Facts = base
	return func() (*chase.Result, error) { return chase.RunContext(ctx, &prog, opts) }, m.Epoch()
}

// Update applies base-fact additions and retractions to the pipeline's
// maintained instance and repairs its fixpoint incrementally (see the
// incremental package for the exact semantics of adds, retracts and
// promotions). The first call stands up the maintainer with one full chase
// over the compiled program; every later call pays only for the delta.
//
// After an Update, Reason serves the maintained instance: its epoch is part
// of the result-cache fingerprint, so results cached before the update
// become unreachable rather than stale. The returned Result is an immutable
// snapshot of the repaired fixpoint.
func (p *Pipeline) Update(add, retract []ast.Atom) (*chase.Result, incremental.UpdateStats, error) {
	return p.UpdateContext(context.Background(), add, retract)
}

// UpdateContext is Update under a context. The initial maintainer build (the
// first call's full chase) and the request-resolution phase are cancellable
// without consequence; once the repair starts mutating the fixpoint, a
// cancellation poisons the maintained instance like any other mid-repair
// failure (see incremental.Maintainer.UpdateContext). Deadlines on updates
// should therefore be generous — they are a backstop against runaway
// programs, not a latency budget.
func (p *Pipeline) UpdateContext(ctx context.Context, add, retract []ast.Atom) (*chase.Result, incremental.UpdateStats, error) {
	p.mntMu.Lock()
	defer p.mntMu.Unlock()
	if p.mnt == nil {
		m, err := incremental.NewContext(ctx, p.prog, p.cfg.Chase)
		if err != nil {
			return nil, incremental.UpdateStats{}, fmt.Errorf("core: building maintainer: %w", err)
		}
		p.mnt = m
	}
	return p.mnt.UpdateContext(ctx, add, retract)
}

// Maintain builds an independent maintainer over the program plus the given
// extra extensional facts — the mutable counterpart of Reason(extra...) for
// callers (like the serving layer) that keep several live instances of one
// compiled application. The pipeline's own maintained instance (Update) is
// not affected.
func (p *Pipeline) Maintain(extra ...ast.Atom) (*incremental.Maintainer, error) {
	return p.MaintainContext(context.Background(), extra...)
}

// MaintainContext is Maintain under a context: the stand-up chase is
// cancellable, and a canceled build returns no maintainer (nothing to
// poison).
func (p *Pipeline) MaintainContext(ctx context.Context, extra ...ast.Atom) (*incremental.Maintainer, error) {
	opts := p.cfg.Chase
	opts.ExtraFacts = append(append([]ast.Atom{}, opts.ExtraFacts...), extra...)
	return incremental.NewContext(ctx, p.prog, opts)
}

// Epoch returns the maintained instance's mutation epoch: 0 before the
// first Update, and strictly increasing across updates that changed the
// instance. It is the version Reason stamps into cache fingerprints.
func (p *Pipeline) Epoch() uint64 {
	p.mntMu.Lock()
	defer p.mntMu.Unlock()
	if p.mnt == nil {
		return 0
	}
	return p.mnt.Epoch()
}

// IncrementalStats returns the maintained instance's cumulative update
// counters; all zero before the first Update.
func (p *Pipeline) IncrementalStats() incremental.Counters {
	p.mntMu.Lock()
	defer p.mntMu.Unlock()
	if p.mnt == nil {
		return incremental.Counters{}
	}
	return p.mnt.Stats()
}

// Explanation is the answer to one explanation query.
type Explanation struct {
	// Fact is the derived fact being explained.
	Fact *database.Fact
	// Proof is the portion of the chase graph deriving the fact.
	Proof *chase.Proof
	// Mapping is the template composition (the reasoning graph).
	Mapping *mapping.Mapping
	// Text is the final explanation (enhanced templates when available).
	Text string
	// Deterministic is the explanation produced from the unenhanced
	// templates.
	Deterministic string
}

// PathIDs returns the reasoning paths composed for this explanation, e.g.
// [Π2, Γ1*].
func (e *Explanation) PathIDs() []string { return e.Mapping.PathIDs() }

// Verify re-checks completeness: every constant of the proof must occur (as
// a whole token) in both the enhanced and the deterministic text. It
// returns the missing constants as an error, and nil when the explanation
// is complete.
func (e *Explanation) Verify() error {
	constants := e.Proof.Constants()
	missing := verbalizer.MissingConstants(e.Text, constants)
	missing = append(missing, verbalizer.MissingConstants(e.Deterministic, constants)...)
	if len(missing) > 0 {
		return fmt.Errorf("core: explanation of %v omits constants %s", e.Fact, strings.Join(missing, ", "))
	}
	return nil
}

// Explain answers the explanation query Q_e = {pattern}: it locates the
// (unique) derived fact matching the pattern, extracts its proof, maps the
// chase steps to templates and instantiates them.
func (p *Pipeline) Explain(res *chase.Result, pattern ast.Atom) (*Explanation, error) {
	id, err := res.LookupDerived(pattern)
	if err != nil {
		return nil, err
	}
	return p.ExplainFact(res, id)
}

// ExplainQuery is Explain with the pattern given in concrete syntax, e.g.
// `Default("C")` or `Control("B", D)`.
func (p *Pipeline) ExplainQuery(res *chase.Result, query string) (*Explanation, error) {
	pattern, err := parser.ParseAtom(query)
	if err != nil {
		return nil, fmt.Errorf("core: explanation query: %w", err)
	}
	return p.Explain(res, pattern)
}

// ExplainFact explains a fact by id.
//
// With Config.ExplanationCacheSize > 0 the finished Explanation is
// memoized per (result, fact): repeated queries — and every warm
// ExplainAll — return the already-built Explanation. Explanation building
// is deterministic, so the memoized object carries exactly the bytes an
// uncached rebuild would produce; callers must treat shared Explanations
// as immutable.
func (p *Pipeline) ExplainFact(res *chase.Result, id database.FactID) (*Explanation, error) {
	if p.expl == nil {
		return p.explainFact(res, id)
	}
	key := explKey{res: res, id: id}
	if e, ok := p.expl.Get(key); ok {
		return e, nil
	}
	e, err := p.explainFact(res, id)
	if err != nil {
		return nil, err
	}
	p.expl.Put(key, e)
	return e, nil
}

// explainFact builds one explanation from scratch.
func (p *Pipeline) explainFact(res *chase.Result, id database.FactID) (*Explanation, error) {
	proof, err := res.ExtractProof(id)
	if err != nil {
		return nil, err
	}
	m, err := mapping.Map(proof, p.templates)
	if err != nil {
		return nil, err
	}
	text, err := m.Explanation()
	if err != nil {
		return nil, err
	}
	det, err := m.DeterministicExplanation()
	if err != nil {
		return nil, err
	}
	return &Explanation{
		Fact:          res.Store.Get(id),
		Proof:         proof,
		Mapping:       m,
		Text:          text,
		Deterministic: det,
	}, nil
}

// ExplainAll explains every answer of the reasoning task (every
// non-superseded fact of the output predicate).
func (p *Pipeline) ExplainAll(res *chase.Result) ([]*Explanation, error) {
	var out []*Explanation
	for _, id := range res.Answers() {
		e, err := p.ExplainFact(res, id)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// VerbalizeProof produces the fully deterministic step-by-step instance
// explanation of a fact's proof — the text the paper feeds to the LLM
// baseline in its Sections 6.2 and 6.3.
func (p *Pipeline) VerbalizeProof(proof *chase.Proof) (string, error) {
	return verbalizer.VerbalizeProof(proof, p.glossary)
}
