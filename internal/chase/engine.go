package chase

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/term"
)

// Options configure a chase run.
type Options struct {
	// MaxRounds bounds the number of evaluation rounds; 0 means the
	// default (10_000). The bound exists as a safety net for programs
	// whose termination is not otherwise guaranteed (e.g. multiplicative
	// recursion over cyclic ownership without a threshold condition).
	MaxRounds int
	// MaxFacts bounds the total number of facts; 0 means the default
	// (10_000_000).
	MaxFacts int
	// ExtraFacts are added to the program's embedded facts before running.
	ExtraFacts []ast.Atom
}

const (
	defaultMaxRounds = 10_000
	defaultMaxFacts  = 10_000_000
)

// Run executes the chase for the program until fixpoint and returns the
// result with full provenance. It is RunLive followed by a Snapshot; callers
// that need to maintain the fixpoint under later base-fact updates keep the
// Live handle instead (see live.go and internal/incremental).
func Run(p *ast.Program, opts Options) (*Result, error) {
	return RunContext(context.Background(), p, opts)
}

// RunContext is Run under a cancellation context: the engine checks ctx at
// every round and rule boundary and inside batch joins, and returns a
// wrapped ErrCanceled/ErrDeadline promptly after ctx ends. A canceled run
// has no side effects — every run builds its own store — so a later run
// over the same program is byte-identical to one that was never canceled
// (see context.go for the full contract).
func RunContext(ctx context.Context, p *ast.Program, opts Options) (*Result, error) {
	l, err := RunLiveContext(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	return l.Snapshot(), nil
}

// MustRun is Run for statically-valid programs; it panics on error.
func MustRun(p *ast.Program, opts Options) *Result {
	r, err := Run(p, opts)
	if err != nil {
		panic(fmt.Sprintf("chase.MustRun: %v", err))
	}
	return r
}

// tuning holds the thresholds by which the engine picks a join strategy per
// rule evaluation, plus the two reference switches of the differential
// suites. Every strategy yields the same bytes, so the thresholds only move
// wall time; batch.go documents each next to the measurements that set it.
type tuning struct {
	// batchMinExtent, frameFallbackMin and mergeThreshold default to the
	// constants of the same name in batch.go.
	batchMinExtent   int
	frameFallbackMin int
	mergeThreshold   int
	// legacy joins with the sequential map-based interpreter instead of
	// compiled plans, and naive re-joins every rule against the whole store
	// every round: the reference implementations the compiled executor and
	// semi-naive evaluation are differentially tested against.
	legacy bool
	naive  bool
}

var defaultTuning = tuning{
	batchMinExtent:   batchMinExtent,
	frameFallbackMin: frameFallbackMin,
	mergeThreshold:   mergeThreshold,
}

// testTuning, when non-nil, replaces defaultTuning in every engine built
// while it is set. Only this package's _test.go files assign it: it is how
// the differential suites reach the reference implementations and force
// each join strategy.
var testTuning *tuning

type engine struct {
	prog       *ast.Program
	store      *database.Store
	steps      []*Derivation
	derivs     map[database.FactID][]*Derivation
	superseded map[database.FactID]bool
	// aggState tracks, per aggregation rule and group, the last emitted
	// fact so that an updated total supersedes it.
	aggState map[string]aggEmission
	// lastSeen records, per rule, the store size at the start of the
	// rule's previous evaluation; facts with id >= lastSeen are "new" for
	// semi-naive evaluation.
	lastSeen map[*ast.Rule]int
	// aggGroups accumulates aggregation contributors incrementally per
	// rule and group across rounds (semi-naive mode); aggOrder keeps the
	// deterministic group discovery order.
	aggGroups map[*ast.Rule]map[string]*aggGroup
	aggOrder  map[*ast.Rule][]string
	// supersessions counts supersession events; a rule whose groups may
	// reference superseded contributors recomputes all its totals when
	// the count moved since its previous evaluation.
	supersessions int
	lastSuper     map[*ast.Rule]int
	// dirtyGroups marks aggregation groups that lost a contributor or an
	// emission to a retraction (incremental maintenance, live.go); the
	// rule's next evaluation recomputes exactly those groups even when no
	// new contributor arrived. Nil outside incremental updates.
	dirtyGroups map[*ast.Rule]map[string]bool
	// plans caches the compiled slot-plan of each rule (and of constraint
	// pseudo-rules).
	plans    map[*ast.Rule]*plan
	nullSeq  int
	maxFacts int
	// tune holds the join-strategy thresholds (defaultTuning outside tests).
	tune tuning
	// frameJoins and batchJoins count the executor choices made since the
	// last Snapshot, which folds them into the store's join stats: the frame
	// path every small session runs stays free of shared counters.
	frameJoins, batchJoins uint64
	// keyBuf is the reusable scratch buffer for aggregation group and
	// contributor-identity keys (single-threaded accumulation phase only).
	keyBuf []byte
	// keyByID caches the canonical key bytes of interned values and emitBuf
	// is the reusable atom-key buffer — both serve the batch executor's
	// vectorized emission path (emitCols), which deduplicates derived rows
	// against the store without materializing atoms or bindings.
	keyByID [][]byte
	emitBuf []byte
	// idSlab and termSlab are the storage recorded bindings are carved from
	// (bindings.go); stepBuf and nullBuf are emission scratch for the
	// computed values of a step before it is known to derive a new fact.
	idSlab           []term.ValueID
	termSlab         []term.Term
	stepBuf, nullBuf []term.Term
	// ctx is the run's cancellation context; nil means none (see context.go
	// for the checkpoint placement and the state left after a cancel).
	ctx context.Context
}

// aggGroup is the accumulated state of one aggregation group.
type aggGroup struct {
	key     string
	bind    Bindings // the group variables, under the plan's groupLay
	contrib []Contribution
	seen    map[string]bool // contributor identity (premise fact ids)
}

type aggEmission struct {
	fact  database.FactID
	value term.Term
}

// round applies each given rule once over the current store. It reports
// whether any new fact was derived. Cancellation is checked before every
// rule evaluation, so a canceled round stops between two complete
// evaluations.
func (e *engine) round(rules []*ast.Rule) (bool, error) {
	changed := false
	for _, r := range rules {
		if err := e.checkCtx(); err != nil {
			return changed, err
		}
		var c bool
		var err error
		if r.HasAggregation() {
			c, err = e.applyAggRule(r)
		} else {
			c, err = e.applyPlainRule(r)
		}
		if err != nil {
			return false, fmt.Errorf("chase: rule %s: %w", r.Label, err)
		}
		changed = changed || c
	}
	return changed, nil
}

// binding is one body homomorphism together with the matched facts in
// body-atom order: the flat slot frame of the rule's plan (frame for
// atom-bound variables as interned ids, vals for assignment targets). The
// map-based joins — the reference interpreter and Rederive — build sub
// instead and convert it to a frame when they hand the binding on
// (fromSub).
type binding struct {
	sub   term.Substitution
	frame []term.ValueID
	vals  []term.Term
	facts []database.FactID
}

// planFor returns the cached compiled plan of the rule, compiling it on
// first use (rules at Run start, constraint pseudo-rules when checked).
func (e *engine) planFor(r *ast.Rule) (*plan, error) {
	if p, ok := e.plans[r]; ok {
		return p, nil
	}
	p, err := compilePlan(r, e.store.Interner())
	if err != nil {
		return nil, err
	}
	e.plans[r] = p
	return p, nil
}

// fromSub converts a map-based homomorphism to the plan's layout. Every
// layout variable the substitution binds is kept, in layout order, so a
// Rederive seed carries its existential nulls along; atom-bound terms come
// from stored facts and resolve to their dictionary ids.
func (e *engine) fromSub(p *plan, sub term.Substitution) Bindings {
	in := e.store.Interner()
	b := Bindings{lay: p.lay, ids: make([]term.ValueID, p.nslots)}
	for i, name := range p.slotNames {
		b.ids[i] = in.Intern(sub[name])
	}
	for _, name := range p.lay.names[p.nslots:] {
		t, ok := sub[name]
		if !ok {
			break
		}
		b.terms = append(b.terms, t)
	}
	return b
}

// atomFilter restricts which facts an atom position may match during
// semi-naive evaluation; nil admits every fact.
type atomFilter func(atomIdx int, id database.FactID) bool

// joinUnit is one canonical-order slice of a join's output: leaf columns
// from a batch pass, or materialized bindings from the frame executor (a
// whole frame join, a frame-fallback pivot of a batch join, or a batch pass
// whose caller asked for bindings).
type joinUnit struct {
	cols  *batchCols
	binds []binding
}

// joinUnits enumerates the homomorphisms from the rule body into the current
// store, skipping superseded facts: all of them, or (semi) only those using
// at least one fact with id >= boundary — a fact derived since the rule's
// previous evaluation — via the standard pivot decomposition: for pivot i,
// atoms before i match old facts, atom i matches new facts, atoms after i
// match anything. The decomposition is disjoint, so no duplicates arise.
// Assignments and fully bound conditions are evaluated inline; conditions
// mentioning the aggregation target are left to the caller.
//
// This is where the engine picks the executor for one rule evaluation
// (chooseBatch); the units concatenate to the same homomorphisms in the same
// order either way. Batch passes of rules with a compiled head layout hand
// their leaf columns to the vectorized emission path unless wantBindings.
func (e *engine) joinUnits(r *ast.Rule, semi bool, boundary database.FactID, wantBindings bool) ([]joinUnit, error) {
	p, err := e.planFor(r)
	if err != nil {
		return nil, err
	}
	var binds []binding
	switch {
	case e.tune.legacy:
		binds, err = e.joinLegacy(p, semi, boundary)
	case e.chooseBatch(p, semi, boundary):
		e.batchJoins++
		return e.joinBatchUnits(p, semi, boundary, wantBindings || p.head == nil)
	default:
		e.frameJoins++
		binds, err = e.joinFrame(p, semi, boundary)
	}
	if err != nil || len(binds) == 0 {
		return nil, err
	}
	return []joinUnit{{binds: binds}}, nil
}

// chooseBatch decides whether one rule evaluation runs on the batch executor
// (batch.go) or the frame executor (plan.go), from the size of the join's
// input. A semi-naive delta under frameFallbackMin facts leaves every pivot
// under the batch executor's own per-pivot fallback, so it goes to the frame
// executor directly and the columnar indexes are not even refreshed;
// otherwise the largest body predicate is weighed against batchMinExtent.
func (e *engine) chooseBatch(p *plan, semi bool, boundary database.FactID) bool {
	if semi && e.store.Len()-int(boundary) < e.tune.frameFallbackMin {
		return false
	}
	for _, a := range p.rule.Body {
		if len(e.store.ByPredicate(a.Predicate)) >= e.tune.batchMinExtent {
			return true
		}
	}
	return false
}

// joinBindings is joinUnits flattened into the []binding shape the
// aggregation and constraint paths consume.
func (e *engine) joinBindings(r *ast.Rule, semi bool, boundary database.FactID) ([]binding, error) {
	units, err := e.joinUnits(r, semi, boundary, true)
	if err != nil || len(units) == 0 {
		return nil, err
	}
	if len(units) == 1 {
		return units[0].binds, nil
	}
	var all []binding
	for _, u := range units {
		all = append(all, u.binds...)
	}
	return all, nil
}

// joinLegacy is the reference join: the sequential map-based interpreter the
// compiled executors are differentially tested against (tuning.legacy). It
// reads the plan only to hand its bindings on as frames.
func (e *engine) joinLegacy(p *plan, semi bool, boundary database.FactID) ([]binding, error) {
	r := p.rule
	var all []binding
	if !semi {
		all = e.joinAtoms(r, nil, nil)
	} else {
		for pivot := range r.Body {
			all = append(all, e.joinAtoms(r, pivotOrder(r, pivot), pivotFilter(pivot, boundary))...)
		}
	}
	if len(all) == 0 {
		return nil, nil
	}
	all, err := e.finishBindings(r, all)
	if err != nil {
		return nil, err
	}
	for i := range all {
		b := e.fromSub(p, all[i].sub)
		all[i] = binding{frame: b.ids, vals: b.terms, facts: all[i].facts}
	}
	return all, nil
}

// pivotFilter is the semi-naive admission rule for one pivot decomposition:
// atoms before the pivot match only old facts, the pivot matches only new
// facts, atoms after the pivot match anything.
func pivotFilter(pivot int, boundary database.FactID) atomFilter {
	return func(atomIdx int, id database.FactID) bool {
		switch {
		case atomIdx < pivot:
			return id < boundary
		case atomIdx == pivot:
			return id >= boundary
		default:
			return true
		}
	}
}

// pivotOrder starts the join at the pivot atom: it is restricted to the
// (few) new facts, so the enumeration is cut down immediately instead of
// first scanning the full extent of the earlier atoms.
func pivotOrder(r *ast.Rule, pivot int) []int {
	order := make([]int, 0, len(r.Body))
	order = append(order, pivot)
	for i := range r.Body {
		if i != pivot {
			order = append(order, i)
		}
	}
	return order
}

// joinAtoms performs the relational join of the body atoms in the given
// evaluation order (nil means body order) under an optional per-atom fact
// filter. The premise facts of each binding are reported in body-atom
// order regardless of the evaluation order.
func (e *engine) joinAtoms(r *ast.Rule, order []int, allow atomFilter) []binding {
	n := len(r.Body)
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	first := make([]database.FactID, n)
	pending := []binding{{sub: term.Substitution{}, facts: first}}
	for _, atomIdx := range order {
		pending = e.extendAtom(r, pending, atomIdx, allow)
		if len(pending) == 0 {
			return nil
		}
	}
	return pending
}

// extendAtom extends every pending binding with every admissible match of
// one body atom, preserving the relative order of the inputs (the output is
// ordered lexicographically by input position, then match position). It
// only reads the store and the superseded set, so disjoint input slices can
// be extended concurrently.
func (e *engine) extendAtom(r *ast.Rule, pending []binding, atomIdx int, allow atomFilter) []binding {
	pattern := r.Body[atomIdx]
	n := len(r.Body)
	var next []binding
	for _, b := range pending {
		for _, m := range e.store.MatchBind(pattern, b.sub) {
			if e.superseded[m.Fact.ID] {
				continue
			}
			if allow != nil && !allow(atomIdx, m.Fact.ID) {
				continue
			}
			facts := make([]database.FactID, n)
			copy(facts, b.facts)
			facts[atomIdx] = m.Fact.ID
			next = append(next, binding{sub: m.Sub, facts: facts})
		}
	}
	return next
}

// finishBindings evaluates assignments and the non-deferred conditions over
// the joined bindings.
func (e *engine) finishBindings(r *ast.Rule, pending []binding) ([]binding, error) {
	// Evaluate assignments, extending each binding.
	for _, as := range r.Assignments {
		for i := range pending {
			v, err := as.Eval(pending[i].sub)
			if err != nil {
				return nil, err
			}
			if !pending[i].sub.Bind(as.Target, v) {
				return nil, fmt.Errorf("assignment %s: target already bound", as)
			}
		}
	}
	// Apply the conditions that are evaluable now (i.e. that do not
	// mention a not-yet-bound aggregation target).
	deferTarget := ""
	if r.Aggregation != nil {
		deferTarget = r.Aggregation.Target
	}
	var out []binding
	for _, b := range pending {
		ok := true
		for _, c := range r.Conditions {
			if deferTarget != "" && mentions(c, deferTarget) {
				continue
			}
			holds, err := c.Holds(b.sub)
			if err != nil {
				return nil, err
			}
			if !holds {
				ok = false
				break
			}
		}
		// Stratified negation: the binding is rejected when a negated atom
		// matches some current (non-superseded) fact. Negated predicates
		// live in strictly lower strata, so their extension is final here.
		for _, na := range r.Negated {
			if !ok {
				break
			}
			grounded := na.Apply(b.sub)
			for _, id := range e.store.Match(grounded) {
				if !e.superseded[id] {
					ok = false
					break
				}
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	return out, nil
}

// checkConstraints verifies every negative constraint against the saturated
// store, reporting the first violating homomorphism.
func (e *engine) checkConstraints() error {
	for _, c := range e.prog.Constraints {
		if err := e.checkCtx(); err != nil {
			return err
		}
		pseudo := &ast.Rule{
			Label:      c.Label,
			Head:       ast.NewAtom("⊥"),
			Body:       c.Body,
			Negated:    c.Negated,
			Conditions: c.Conditions,
		}
		bindings, err := e.joinBindings(pseudo, false, 0)
		if err != nil {
			return fmt.Errorf("chase: constraint %s: %w", c.Label, err)
		}
		if len(bindings) > 0 {
			witness := make([]string, len(bindings[0].facts))
			for i, id := range bindings[0].facts {
				witness[i] = e.store.Get(id).String()
			}
			return fmt.Errorf("chase: constraint %s violated by %s", constraintName(c), strings.Join(witness, ", "))
		}
	}
	return nil
}

func constraintName(c *ast.Constraint) string {
	if c.Label != "" {
		return c.Label
	}
	return c.String()
}

func mentions(c ast.Condition, v string) bool {
	return (c.Left.IsVariable() && c.Left.Name() == v) ||
		(c.Right.IsVariable() && c.Right.Name() == v)
}

// applyPlainRule fires a non-aggregation rule on every body homomorphism.
// After its first evaluation, semi-naive mode only considers homomorphisms
// involving at least one fact derived since the rule's previous evaluation.
// Join units that stayed columnar feed the vectorized emission path
// (emitCols); bindings emit one by one. Both record the same facts, steps
// and provenance in the same order.
func (e *engine) applyPlainRule(r *ast.Rule) (bool, error) {
	prev, seen := e.lastSeen[r]
	e.lastSeen[r] = e.store.Len()
	full := e.tune.naive || !seen || prev == 0
	if !full && e.store.Len() == prev {
		return false, nil // no new facts since the previous evaluation
	}
	units, err := e.joinUnits(r, !full, database.FactID(prev), false)
	if err != nil {
		// Roll the semi-naive boundary back so the interrupted evaluation
		// (e.g. a cancellation inside a batch join) is not recorded as done;
		// the join emitted nothing, so this restores the pre-call state.
		if seen {
			e.lastSeen[r] = prev
		} else {
			delete(e.lastSeen, r)
		}
		return false, err
	}
	p := e.plans[r]
	changed := false
	for _, u := range units {
		if u.cols != nil {
			c, err := e.emitCols(r, p, u.cols)
			if err != nil {
				return false, err
			}
			changed = changed || c
			continue
		}
		for _, b := range u.binds {
			bind := Bindings{lay: p.lay, ids: b.frame, terms: b.vals}
			// Restricted chase: when the head has existential variables, the
			// step is pre-empted if some existing fact already satisfies the
			// head pattern under the current bindings (existential positions
			// act as wildcards). Without this check the rule would invent a
			// fresh null every round and never reach a fixpoint. MatchAny
			// stops at the first witness instead of materializing the full
			// match list.
			if len(p.exist) > 0 && e.store.MatchAny(bind.ground(r.Head)) {
				continue
			}
			head, bind, err := e.instantiateHead(r, p, bind)
			if err != nil {
				return false, err
			}
			added, err := e.emit(r, head, b.facts, nil, bind)
			if err != nil {
				return false, err
			}
			changed = changed || added
		}
	}
	return changed, nil
}

// idKey returns the canonical key bytes of an interned value, cached on the
// engine (emission is single-threaded).
func (e *engine) idKey(id term.ValueID) []byte {
	if int(id) >= len(e.keyByID) {
		size := e.store.Interner().Len()
		if size <= int(id) {
			size = int(id) + 1
		}
		grown := make([][]byte, size)
		copy(grown, e.keyByID)
		e.keyByID = grown
	}
	if e.keyByID[id] == nil {
		e.keyByID[id] = []byte(e.store.Interner().Value(id).Key())
	}
	return e.keyByID[id]
}

// emitCols is the vectorized emission path for rules with a compiled head
// layout (non-existential, non-aggregating): it walks canonical leaf columns
// row by row, builds each head atom's canonical key into a reusable buffer
// from cached per-value key bytes, and skips duplicates with a single
// allocation-free map read (Store.LookupKey) — emit's Add would return
// added=false and record nothing, so skipping is byte-identical. Only rows
// that actually insert materialize the atom, row, bindings, premises, and
// derivation, via the store's pre-keyed fast path (Store.AddKeyed).
func (e *engine) emitCols(r *ast.Rule, p *plan, st *batchCols) (bool, error) {
	hp := p.head
	in := e.store.Interner()
	nb := len(p.rule.Body)
	changed := false
	buf := e.emitBuf
	for i := 0; i < st.n; i++ {
		// The limit check precedes the duplicate check, exactly like emit.
		if e.store.Len() >= e.maxFacts {
			e.emitBuf = buf
			return false, fmt.Errorf("fact limit %d exceeded", e.maxFacts)
		}
		buf = append(buf[:0], hp.open...)
		for j := range hp.part {
			part := &hp.part[j]
			if j > 0 {
				buf = append(buf, ',')
			}
			switch {
			case part.isConst:
				buf = append(buf, part.key...)
			case part.kind == refSlot:
				buf = append(buf, e.idKey(st.slots[part.idx][i])...)
			default:
				buf = append(buf, st.vals[part.idx][i].Key()...)
			}
		}
		buf = append(buf, ')')
		if _, ok := e.store.LookupKey(buf); ok {
			continue // already derived; no new fact, step, or proof (see emit)
		}
		terms := make([]term.Term, len(hp.part))
		row := make([]term.ValueID, len(hp.part))
		for j := range hp.part {
			part := &hp.part[j]
			switch {
			case part.isConst:
				terms[j], row[j] = part.t, part.id
			case part.kind == refSlot:
				id := st.slots[part.idx][i]
				terms[j], row[j] = in.Value(id), id
			default:
				t := st.vals[part.idx][i]
				terms[j], row[j] = t, in.Intern(t)
			}
		}
		key := make([]byte, len(buf))
		copy(key, buf)
		f := e.store.AddKeyed(ast.Atom{Predicate: hp.pred, Terms: terms}, key, row, false)
		bind := Bindings{lay: p.lay, ids: e.carveIDs(p.nslots), terms: e.carveTerms(p.nvals)}
		for s := range bind.ids {
			bind.ids[s] = st.slots[s][i]
		}
		for v := range bind.terms {
			bind.terms[v] = st.vals[v][i]
		}
		premises := make([]database.FactID, nb)
		for a := 0; a < nb; a++ {
			premises[a] = st.facts[a][i]
		}
		d := &Derivation{
			Step:     len(e.steps),
			Rule:     r,
			Fact:     f.ID,
			Premises: premises,
			Sub:      bind,
		}
		e.steps = append(e.steps, d)
		e.derivs[f.ID] = append(e.derivs[f.ID], d)
		changed = true
	}
	e.emitBuf = buf
	return changed, nil
}

// applyAggRule evaluates an aggregation rule with group-by semantics: body
// homomorphisms are grouped by the variables visible outside the aggregate
// (head variables plus deferred-condition variables, minus the target), the
// aggregate is computed per group over all contributors, deferred conditions
// are checked, and a changed total supersedes the rule's previous emission
// for that group.
func (e *engine) applyAggRule(r *ast.Rule) (bool, error) {
	// Aggregation groups accumulate contributors incrementally: after the
	// first (full) join, semi-naive mode only joins homomorphisms that use
	// a fact derived since the rule's previous evaluation and merges them
	// into the stored groups. A group's total is recomputed when it gains
	// contributors, or for every group when a supersession happened since
	// the previous evaluation (a stored contributor may have gone stale).
	prev, seen := e.lastSeen[r]
	e.lastSeen[r] = e.store.Len()
	full := e.tune.naive || !seen || prev == 0
	prevSuper := e.lastSuper[r]
	superMoved := prevSuper != e.supersessions
	e.lastSuper[r] = e.supersessions
	dirty := e.dirtyGroups[r]
	if !full && e.store.Len() == prev && !superMoved && len(dirty) == 0 {
		return false, nil
	}
	delete(e.dirtyGroups, r)

	var bindings []binding
	var err error
	if full {
		e.aggGroups[r] = map[string]*aggGroup{}
		e.aggOrder[r] = nil
		bindings, err = e.joinBindings(r, false, 0)
	} else if e.store.Len() > prev {
		bindings, err = e.joinBindings(r, true, database.FactID(prev))
	}
	if err != nil {
		// Restore the evaluation bookkeeping consumed above so an
		// interrupted join (cancellation inside a batch join) leaves the
		// rule due for re-evaluation, not silently skipped. In full mode the
		// wiped group state is rebuilt by the full re-join the restored
		// boundary forces.
		if seen {
			e.lastSeen[r] = prev
		} else {
			delete(e.lastSeen, r)
		}
		e.lastSuper[r] = prevSuper
		if dirty != nil {
			e.dirtyGroups[r] = dirty
		}
		return false, err
	}

	g := r.Aggregation
	p := e.plans[r]
	groups := e.aggGroups[r]
	if groups == nil {
		groups = map[string]*aggGroup{}
		e.aggGroups[r] = groups
	}
	touched := map[string]bool{}
	for key := range dirty {
		touched[key] = true
	}
	for _, b := range bindings {
		key := e.groupKeyOf(p, b)
		gr, ok := groups[key]
		if !ok {
			gr = &aggGroup{key: key, bind: e.groupBindings(p, b), seen: map[string]bool{}}
			groups[key] = gr
			e.aggOrder[r] = append(e.aggOrder[r], key)
		}
		// Contributor identity: the tuple of premise facts. Distinct
		// facts are distinct contributors (two loans between the same
		// entities both count); re-derivations of the identical premise
		// tuple are not double counted.
		ident := e.factTupleKey(b.facts)
		if gr.seen[ident] {
			continue
		}
		gr.seen[ident] = true
		val, bound := e.overValue(p, b)
		if !bound {
			return false, fmt.Errorf("aggregation %s: variable %s unbound", g, g.Over)
		}
		sub := e.keep(Bindings{lay: p.lay, ids: b.frame, terms: b.vals})
		gr.contrib = append(gr.contrib, Contribution{Premises: b.facts, Value: val, Sub: sub})
		touched[key] = true
	}

	recomputeAll := full || superMoved
	changed := false
	for _, key := range e.aggOrder[r] {
		if !recomputeAll && !touched[key] {
			continue
		}
		gr := groups[key]
		live := e.liveContributions(gr.contrib)
		if len(live) == 0 {
			continue
		}
		total, err := aggregate(g.Func, live)
		if err != nil {
			return false, err
		}
		e.stepBuf = append(append(e.stepBuf[:0], gr.bind.terms...), total)
		bind := Bindings{lay: p.aggLay, ids: gr.bind.ids, terms: e.stepBuf}
		// Deferred conditions (those mentioning the target).
		ok := true
		for _, c := range r.Conditions {
			if !mentions(c, g.Target) {
				continue
			}
			holds, err := bind.holds(c)
			if err != nil {
				return false, err
			}
			if !holds {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		head, bind, err := e.instantiateHead(r, p, bind)
		if err != nil {
			return false, err
		}
		premises := dedupFacts(live)
		added, err := e.emitAgg(r, key, head, premises, live, bind, total)
		if err != nil {
			return false, err
		}
		changed = changed || added
	}
	return changed, nil
}

// liveContributions filters out contributors whose premises have been
// superseded by a more complete aggregate emission or tombstoned by an
// incremental retraction (the latter is belt-and-braces: purgeRetracted
// removes dead contributors physically; the check here is a cheap len test
// in the append-only common case).
func (e *engine) liveContributions(contrib []Contribution) []Contribution {
	live := contrib
	for i, c := range contrib {
		stale := false
		for _, id := range c.Premises {
			if e.superseded[id] || e.store.Retracted(id) {
				stale = true
				break
			}
		}
		if stale {
			// Copy-on-write: most groups have no stale contributors.
			if len(live) == len(contrib) {
				live = append([]Contribution{}, contrib[:i]...)
			}
			continue
		}
		if len(live) != len(contrib) {
			live = append(live, c)
		}
	}
	return live
}

// aggGroupVars returns the grouping variables of an aggregation rule: the
// head variables plus the variables of target-mentioning conditions, minus
// the target itself.
func aggGroupVars(r *ast.Rule) []string {
	g := r.Aggregation
	seen := map[string]bool{g.Target: true}
	var out []string
	add := func(names []string) {
		for _, n := range names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	add(r.Head.Variables())
	for _, c := range r.Conditions {
		if mentions(c, g.Target) {
			add(c.Variables())
		}
	}
	return out
}

// Aggregation keys are integer-id based: group keys encode atom-bound
// variables as their dense interned ids (4 bytes each) instead of canonical
// term strings, and contributor-identity keys varint-encode the premise fact
// ids. Assignment-target group variables encode by canonical key — a
// computed value may enter the dictionary later, so its id would not be
// stable across rounds, while its canonical key is. Id equality coincides
// with canonical-key equality, so the partition (and, with binding order,
// the aggOrder discovery order) is identical to the previous string keys.

// groupKeyOf builds the group key of one binding.
func (e *engine) groupKeyOf(p *plan, b binding) string {
	buf := e.keyBuf[:0]
	for _, ref := range p.groupRefs {
		switch ref.kind {
		case refSlot:
			buf = appendIDPart(buf, b.frame[ref.idx])
		case refVal:
			buf = appendKeyPart(buf, b.vals[ref.idx])
		default:
			buf = append(buf, 0xff)
		}
	}
	e.keyBuf = buf
	return string(buf)
}

func appendIDPart(buf []byte, id term.ValueID) []byte {
	return append(buf, 'i', byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}

func appendKeyPart(buf []byte, t term.Term) []byte {
	buf = append(buf, 'k')
	buf = append(buf, t.Key()...)
	return append(buf, 0)
}

// groupBindings records the group variables of one binding: the group-level
// part of the homomorphism, kept on the aggregation group.
func (e *engine) groupBindings(p *plan, b binding) Bindings {
	bind := Bindings{lay: p.groupLay, ids: e.carveIDs(len(p.groupSlots)), terms: e.carveTerms(len(p.groupVals))}
	for i, s := range p.groupSlots {
		bind.ids[i] = b.frame[s]
	}
	for i, v := range p.groupVals {
		bind.terms[i] = b.vals[v]
	}
	return bind
}

// overValue resolves the aggregated variable of a binding.
func (e *engine) overValue(p *plan, b binding) (term.Term, bool) {
	switch ref := p.overRef; ref.kind {
	case refSlot:
		return e.store.Interner().Value(b.frame[ref.idx]), true
	case refVal:
		return b.vals[ref.idx], true
	}
	return term.Term{}, false
}

// factTupleKey is the contributor-identity key: the premise fact ids,
// varint-encoded into the engine's reusable key buffer.
func (e *engine) factTupleKey(ids []database.FactID) string {
	buf := e.keyBuf[:0]
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	e.keyBuf = buf
	return string(buf)
}

func dedupFacts(contrib []Contribution) []database.FactID {
	var out []database.FactID
	seen := map[database.FactID]bool{}
	for _, c := range contrib {
		for _, id := range c.Premises {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// aggregate folds contributor values with the aggregation function.
func aggregate(fn ast.AggFunc, contrib []Contribution) (term.Term, error) {
	if fn == ast.AggCount {
		return term.Int(int64(len(contrib))), nil
	}
	if len(contrib) == 0 {
		return term.Term{}, fmt.Errorf("aggregate %s over empty group", fn)
	}
	acc, ok := contrib[0].Value.AsFloat()
	if !ok {
		return term.Term{}, fmt.Errorf("aggregate %s over non-numeric value %v", fn, contrib[0].Value)
	}
	for _, c := range contrib[1:] {
		v, ok := c.Value.AsFloat()
		if !ok {
			return term.Term{}, fmt.Errorf("aggregate %s over non-numeric value %v", fn, c.Value)
		}
		switch fn {
		case ast.AggSum:
			acc += v
		case ast.AggProd:
			acc *= v
		case ast.AggMin:
			if v < acc {
				acc = v
			}
		case ast.AggMax:
			if v > acc {
				acc = v
			}
		default:
			return term.Term{}, fmt.Errorf("unsupported aggregation %q", fn)
		}
	}
	return term.Float(acc), nil
}

// instantiateHead grounds the head under the bindings, binding each
// existential variable of the plan to a fresh labelled null. The returned
// bindings are still transient: emit keeps them if the step fires.
func (e *engine) instantiateHead(r *ast.Rule, p *plan, bind Bindings) (ast.Atom, Bindings, error) {
	if len(p.exist) > 0 {
		e.nullBuf = append(e.nullBuf[:0], bind.terms...)
		for range p.exist {
			e.nullSeq++
			e.nullBuf = append(e.nullBuf, term.Null("z"+strconv.Itoa(e.nullSeq)))
		}
		bind.terms = e.nullBuf
	}
	head := bind.ground(r.Head)
	if !head.IsGround() {
		return ast.Atom{}, Bindings{}, fmt.Errorf("head %v not ground after instantiation", head)
	}
	return head, bind, nil
}

// emit adds a derived fact with its derivation. Chase steps whose conclusion
// already exists are pre-empted (no new fact, no new step); the derivation
// is still recorded as an alternative proof if it is the fact's first. The
// bindings may point at scratch; the recorded step keeps a copy.
func (e *engine) emit(r *ast.Rule, head ast.Atom, premises []database.FactID, contrib []Contribution, bind Bindings) (bool, error) {
	if e.store.Len() >= e.maxFacts {
		return false, fmt.Errorf("fact limit %d exceeded", e.maxFacts)
	}
	f, added, err := e.store.Add(head, false)
	if err != nil {
		return false, err
	}
	if !added {
		return false, nil
	}
	d := &Derivation{
		Step:         len(e.steps),
		Rule:         r,
		Fact:         f.ID,
		Premises:     premises,
		Contributors: contrib,
		Sub:          e.keep(bind),
	}
	e.steps = append(e.steps, d)
	e.derivs[f.ID] = append(e.derivs[f.ID], d)
	return true, nil
}

// emitAgg emits an aggregation result and supersedes the rule's previous
// emission for the same group when the total changed.
func (e *engine) emitAgg(r *ast.Rule, groupKey string, head ast.Atom, premises []database.FactID, contrib []Contribution, bind Bindings, total term.Term) (bool, error) {
	stateKey := r.Label + "\x00" + groupKey
	if prev, ok := e.aggState[stateKey]; ok && prev.value.Equal(total) {
		return false, nil
	}
	existing := e.store.Lookup(head)
	added, err := e.emit(r, head, premises, contrib, bind)
	if err != nil {
		return false, err
	}
	if !added && existing != nil && !existing.Extensional {
		// The identical total was already derived (possibly by another
		// rule); record the group state so we do not loop.
		if prev, ok := e.aggState[stateKey]; ok && prev.fact != existing.ID {
			e.superseded[prev.fact] = true
			e.supersessions++
		}
		e.aggState[stateKey] = aggEmission{fact: existing.ID, value: total}
		if e.superseded[existing.ID] {
			// Only incremental updates reach this: the group's total moved
			// away and came back, so its old emission — superseded by a value
			// the group no longer holds — becomes current again. Its recorded
			// premises are live (a dead premise would have tombstoned it), so
			// the original derivation stands.
			delete(e.superseded, existing.ID)
			e.supersessions++
			return true, nil
		}
		return false, nil
	}
	if !added {
		return false, nil
	}
	f := e.store.Lookup(head)
	if prev, ok := e.aggState[stateKey]; ok && prev.fact != f.ID {
		e.superseded[prev.fact] = true
		e.supersessions++
	}
	e.aggState[stateKey] = aggEmission{fact: f.ID, value: total}
	return true, nil
}

// SortedFactIDs returns ids sorted ascending; a convenience for
// deterministic reporting.
//
// It is deliberately kept out of the emission path: emit and emitAgg record
// premises in body-atom (respectively first-use) order without sorting, and
// that order is part of the provenance contract — templates verbalize
// premises in rule-body order, so re-sorting here would scramble
// explanations. The only callers sort once per proof extraction (the leaf
// set) or per report, never per emission; a regression test
// (TestProvenancePremiseOrderStable) pins both properties down.
func SortedFactIDs(ids []database.FactID) []database.FactID {
	out := make([]database.FactID, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
