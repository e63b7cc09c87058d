package chase

// Engine state serialization: EncodeState flattens everything a live engine
// owns — the value dictionary, the fact store with tombstones, the step list
// with full provenance, and the aggregation bookkeeping — into one
// deterministic byte payload, and RestoreLive rebuilds a Live from it that is
// byte-identical to the original: same fact ids, same steps, same proofs,
// and (because the semi-naive boundaries, aggregation groups and null
// counter survive) the same behavior under every subsequent incremental
// update. The payload is deliberately self-contained *relative to a
// program*: rules are stored as indexes into Program.Rules, so restore must
// be given the same program the snapshot was taken against (the on-disk
// envelope in internal/snapshot carries a program fingerprint for exactly
// that check).
//
// Scratch and derived state is not serialized: compiled plans are
// recompiled (their constants are already in the restored dictionary, so no
// new ids are assigned), the per-fact derivation index is rebuilt from the
// step list (both emission paths append to steps and derivs in the same
// order), strata and the existential/negation rule sets are recomputed from
// the program, and the columnar indexes rebuild lazily on first use.
//
// Determinism: every map is emitted in a canonical order (rules in program
// order, bindings as (name, term) pairs by variable name, id sets ascending,
// aggregation groups in their discovery order), so encoding the same logical
// state — including the state of a just-restored engine — yields the same
// bytes. Bindings are written through their layout's name order and decoded
// straight back into frames of the same layout, which is why a restore
// compiles the plans before it reads the first step.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/term"
)

// stateVersion is the payload format version; restore rejects others.
const stateVersion = 1

// EncodeState serializes the live engine's complete logical state. The Live
// must be quiescent (no concurrent mutation), the same condition its other
// methods require.
func (l *Live) EncodeState() ([]byte, error) {
	e := l.e
	ruleIdx := make(map[*ast.Rule]int, len(e.prog.Rules))
	for i, r := range e.prog.Rules {
		ruleIdx[r] = i
	}
	w := &stateWriter{}
	w.byte(stateVersion)

	// Value dictionary, in id order. The exact representative term of each
	// id is preserved (Int(3) vs Float(3.0) matters: the representative is
	// what Value returns and what emitted atoms render).
	in := e.store.Interner()
	w.uint(uint64(in.Len()))
	for id := 0; id < in.Len(); id++ {
		w.term(in.Value(term.ValueID(id)))
	}

	// Facts in id order, with their exact atom terms (which may differ from
	// the dictionary representative of the same value) and extensional flag.
	facts := e.store.Facts()
	w.uint(uint64(len(facts)))
	for _, f := range facts {
		w.str(f.Atom.Predicate)
		w.bool(f.Extensional)
		w.uint(uint64(len(f.Atom.Terms)))
		for _, t := range f.Atom.Terms {
			w.term(t)
		}
	}

	// Tombstones, ascending.
	var dead []database.FactID
	for _, f := range facts {
		if e.store.Retracted(f.ID) {
			dead = append(dead, f.ID)
		}
	}
	w.uint(uint64(len(dead)))
	for _, id := range dead {
		w.uint(uint64(id))
	}
	w.uint(e.store.Epoch())

	// Chase steps, chronological. Rules are program indexes; every emitted
	// step's rule comes from Program.Rules (constraint pseudo-rules never
	// emit).
	w.uint(uint64(len(e.steps)))
	for _, d := range e.steps {
		idx, ok := ruleIdx[d.Rule]
		if !ok {
			return nil, fmt.Errorf("chase: snapshot: step %d references a rule outside the program", d.Step)
		}
		w.uint(uint64(idx))
		w.uint(uint64(d.Fact))
		w.ids(d.Premises)
		w.bindings(d.Sub)
		w.uint(uint64(len(d.Contributors)))
		for _, c := range d.Contributors {
			w.ids(c.Premises)
			w.term(c.Value)
			w.bindings(c.Sub)
		}
	}

	// Superseded aggregate emissions, ascending.
	w.ids(SortedIDs(e.superseded))

	// Aggregation emission state, sorted by its (binary) key.
	aggKeys := make([]string, 0, len(e.aggState))
	for k := range e.aggState {
		aggKeys = append(aggKeys, k)
	}
	sort.Strings(aggKeys)
	w.uint(uint64(len(aggKeys)))
	for _, k := range aggKeys {
		st := e.aggState[k]
		w.str(k)
		w.uint(uint64(st.fact))
		w.term(st.value)
	}

	// Semi-naive boundaries and supersession watermarks, in rule order.
	w.ruleInts(e.prog.Rules, ruleIdx, e.lastSeen)
	w.ruleInts(e.prog.Rules, ruleIdx, e.lastSuper)
	w.int(int64(e.supersessions))

	// Aggregation groups, per rule in program order, groups in discovery
	// order (aggOrder). The contributor-identity set (seen) is rebuilt from
	// the contributors at restore.
	var aggRules []*ast.Rule
	for _, r := range e.prog.Rules {
		if _, ok := e.aggGroups[r]; ok {
			aggRules = append(aggRules, r)
		}
	}
	w.uint(uint64(len(aggRules)))
	for _, r := range aggRules {
		w.uint(uint64(ruleIdx[r]))
		order := e.aggOrder[r]
		groups := e.aggGroups[r]
		if len(order) != len(groups) {
			return nil, fmt.Errorf("chase: snapshot: rule %s has %d groups but %d ordered keys", r.Label, len(groups), len(order))
		}
		w.uint(uint64(len(order)))
		for _, key := range order {
			gr, ok := groups[key]
			if !ok {
				return nil, fmt.Errorf("chase: snapshot: rule %s group key missing from map", r.Label)
			}
			w.str(key)
			w.bindings(gr.bind)
			w.uint(uint64(len(gr.contrib)))
			for _, c := range gr.contrib {
				w.ids(c.Premises)
				w.term(c.Value)
				w.bindings(c.Sub)
			}
		}
	}

	// Dirty aggregation groups (normally empty at quiescence).
	var dirtyRules []*ast.Rule
	for _, r := range e.prog.Rules {
		if len(e.dirtyGroups[r]) > 0 {
			dirtyRules = append(dirtyRules, r)
		}
	}
	w.uint(uint64(len(dirtyRules)))
	for _, r := range dirtyRules {
		w.uint(uint64(ruleIdx[r]))
		keys := make([]string, 0, len(e.dirtyGroups[r]))
		for k := range e.dirtyGroups[r] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.uint(uint64(len(keys)))
		for _, k := range keys {
			w.str(k)
		}
	}

	w.int(int64(e.nullSeq))
	w.int(int64(l.rounds))
	w.f64(l.loadSeconds)
	w.f64(l.evalSeconds)
	return w.buf, nil
}

// RestoreLive rebuilds a Live from an EncodeState payload taken against the
// same program. Results are byte-identical under every join strategy, but
// the program must be identical: rule references are stored as indexes
// into Program.Rules. The caller is responsible for that check (the on-disk
// envelope verifies a program fingerprint).
func RestoreLive(p *ast.Program, opts Options, data []byte) (*Live, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("chase: restore: invalid program: %w", err)
	}
	r := &stateReader{data: data}
	if v := r.byte(); r.err == nil && v != stateVersion {
		return nil, fmt.Errorf("chase: restore: unsupported state version %d", v)
	}

	e := newEngine(p, opts)

	// Dictionary first: interning the exact representatives in id order
	// reproduces every id assignment, so the fact rows, aggregation keys and
	// recompiled plan constants below all land on their original ids.
	in := e.store.Interner()
	nvals := r.uint()
	for i := uint64(0); i < nvals && r.err == nil; i++ {
		t := r.term()
		if r.err != nil {
			break
		}
		if id := in.Intern(t); uint64(id) != i {
			return nil, fmt.Errorf("chase: restore: dictionary id %d assigned %d (corrupt or out-of-order snapshot)", i, id)
		}
	}

	// Facts, appended raw in id order (Add would dedupe a re-added atom
	// against its not-yet-tombstoned predecessor), then tombstones.
	nfacts := r.uint()
	for i := uint64(0); i < nfacts && r.err == nil; i++ {
		pred := r.str()
		ext := r.bool()
		arity := r.uint()
		terms := make([]term.Term, arity)
		for j := range terms {
			terms[j] = r.term()
		}
		if r.err != nil {
			break
		}
		f, err := e.store.RestoreFact(ast.Atom{Predicate: pred, Terms: terms}, ext)
		if err != nil {
			return nil, fmt.Errorf("chase: restore: fact %d: %w", i, err)
		}
		if uint64(f.ID) != i {
			return nil, fmt.Errorf("chase: restore: fact %d assigned id %d", i, f.ID)
		}
	}
	ndead := r.uint()
	for i := uint64(0); i < ndead && r.err == nil; i++ {
		id := database.FactID(r.uint())
		if r.err != nil {
			break
		}
		if err := e.store.Retract(id); err != nil {
			return nil, fmt.Errorf("chase: restore: tombstone %d: %w", id, err)
		}
	}
	e.store.SetEpoch(r.uint())
	if r.err == nil {
		if err := e.compileRules(); err != nil {
			return nil, fmt.Errorf("chase: restore: %w", err)
		}
	}

	// Steps; the per-fact derivation index rebuilds alongside in the same
	// append order the emission paths used.
	nsteps := r.uint()
	for i := uint64(0); i < nsteps && r.err == nil; i++ {
		rule := r.rule(p)
		if r.err != nil {
			break
		}
		pl := e.plans[rule]
		fact := database.FactID(r.uint())
		premises := r.ids()
		lay := pl.lay
		if rule.HasAggregation() {
			lay = pl.aggLay
		}
		sub := r.bindings(e, lay)
		nc := r.uint()
		var contribs []Contribution
		for j := uint64(0); j < nc && r.err == nil; j++ {
			contribs = append(contribs, Contribution{Premises: r.ids(), Value: r.term(), Sub: r.bindings(e, pl.lay)})
		}
		if r.err != nil {
			break
		}
		if int(fact) >= e.store.Len() {
			return nil, fmt.Errorf("chase: restore: step %d derives unknown fact %d", i, fact)
		}
		d := &Derivation{Step: int(i), Rule: rule, Fact: fact, Premises: premises, Contributors: contribs, Sub: sub}
		e.steps = append(e.steps, d)
		e.derivs[fact] = append(e.derivs[fact], d)
	}

	for _, id := range r.ids() {
		e.superseded[id] = true
	}
	nagg := r.uint()
	for i := uint64(0); i < nagg && r.err == nil; i++ {
		key := r.str()
		fact := database.FactID(r.uint())
		val := r.term()
		if r.err == nil {
			e.aggState[key] = aggEmission{fact: fact, value: val}
		}
	}

	r.ruleInts(p, e.lastSeen)
	r.ruleInts(p, e.lastSuper)
	e.supersessions = int(r.int())

	nAggRules := r.uint()
	for i := uint64(0); i < nAggRules && r.err == nil; i++ {
		rule := r.rule(p)
		if r.err != nil {
			break
		}
		pl := e.plans[rule]
		if pl.groupLay == nil {
			return nil, fmt.Errorf("chase: restore: aggregation groups for rule %s, which does not aggregate", rule.Label)
		}
		ngroups := r.uint()
		groups := map[string]*aggGroup{}
		var order []string
		for j := uint64(0); j < ngroups && r.err == nil; j++ {
			key := r.str()
			bind := r.bindings(e, pl.groupLay)
			ncontrib := r.uint()
			gr := &aggGroup{key: key, bind: bind, seen: map[string]bool{}}
			for k := uint64(0); k < ncontrib && r.err == nil; k++ {
				c := Contribution{Premises: r.ids(), Value: r.term(), Sub: r.bindings(e, pl.lay)}
				gr.contrib = append(gr.contrib, c)
				gr.seen[e.factTupleKey(c.Premises)] = true
			}
			groups[key] = gr
			order = append(order, key)
		}
		if r.err == nil {
			e.aggGroups[rule] = groups
			e.aggOrder[rule] = order
		}
	}

	nDirty := r.uint()
	for i := uint64(0); i < nDirty && r.err == nil; i++ {
		rule := r.rule(p)
		nkeys := r.uint()
		for j := uint64(0); j < nkeys && r.err == nil; j++ {
			key := r.str()
			if r.err == nil && rule != nil {
				e.markDirtyGroup(rule, key)
			}
		}
	}

	e.nullSeq = int(r.int())
	rounds := int(r.int())
	loadSeconds := r.f64()
	evalSeconds := r.f64()
	if r.err != nil {
		return nil, fmt.Errorf("chase: restore: %w", r.err)
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("chase: restore: %d trailing bytes after state payload", len(r.data)-r.off)
	}

	l, err := e.live(opts)
	if err != nil {
		return nil, fmt.Errorf("chase: restore: %w", err)
	}
	l.rounds = rounds
	l.loadSeconds = loadSeconds
	l.evalSeconds = evalSeconds
	return l, nil
}

// stateWriter is the append-only encoder behind EncodeState: varint-based,
// little-endian, deterministic.
type stateWriter struct{ buf []byte }

func (w *stateWriter) byte(b byte)   { w.buf = append(w.buf, b) }
func (w *stateWriter) uint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *stateWriter) int(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *stateWriter) f64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}
func (w *stateWriter) bool(b bool) {
	if b {
		w.byte(1)
	} else {
		w.byte(0)
	}
}
func (w *stateWriter) str(s string) {
	w.uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *stateWriter) ids(ids []database.FactID) {
	w.uint(uint64(len(ids)))
	for _, id := range ids {
		w.uint(uint64(id))
	}
}

// bindings emits (name, term) pairs sorted by variable name.
func (w *stateWriter) bindings(b Bindings) {
	w.uint(uint64(b.size()))
	if b.size() == 0 {
		return
	}
	for _, i := range b.lay.sorted {
		w.str(b.lay.names[i])
		w.term(b.at(i))
	}
}

// Term wire tags.
const (
	tagConstString = 0
	tagConstInt    = 1
	tagConstFloat  = 2
	tagConstBool   = 3
	tagVariable    = 4
	tagNull        = 5
)

func (w *stateWriter) term(t term.Term) {
	switch t.Kind() {
	case term.KindVariable:
		w.byte(tagVariable)
		w.str(t.Name())
	case term.KindNull:
		w.byte(tagNull)
		w.str(t.Name())
	default:
		switch t.ConstType() {
		case term.ConstString:
			w.byte(tagConstString)
			w.str(t.StringVal())
		case term.ConstInt:
			w.byte(tagConstInt)
			w.int(t.IntVal())
		case term.ConstFloat:
			w.byte(tagConstFloat)
			w.f64(t.FloatVal())
		default:
			w.byte(tagConstBool)
			w.bool(t.BoolVal())
		}
	}
}

// stateReader decodes a stateWriter payload; the first malformed read sets
// err and every later read is a cheap no-op, so call sites check err at
// section boundaries.
type stateReader struct {
	data []byte
	off  int
	err  error
	key  []byte // scratch for dictionary probes of decoded bindings
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *stateReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail("truncated payload at offset %d", r.off)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *stateReader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("malformed uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *stateReader) int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("malformed varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *stateReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail("truncated float at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

func (r *stateReader) bool() bool { return r.byte() != 0 }

func (r *stateReader) str() string {
	n := r.uint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.data)-r.off) < n {
		r.fail("truncated string of length %d at offset %d", n, r.off)
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *stateReader) ids() []database.FactID {
	n := r.uint()
	if r.err != nil || n == 0 {
		return nil
	}
	if uint64(len(r.data)-r.off) < n {
		r.fail("id list of length %d exceeds payload at offset %d", n, r.off)
		return nil
	}
	out := make([]database.FactID, n)
	for i := range out {
		out[i] = database.FactID(r.uint())
	}
	return out
}

// bindings decodes (name, term) pairs into a frame of the layout the pairs
// were written from: the names must be exactly the layout's, in name order,
// and atom-bound terms must be in the restored dictionary.
func (r *stateReader) bindings(e *engine, lay *layout) Bindings {
	n := r.uint()
	if r.err != nil {
		return Bindings{}
	}
	if n != uint64(len(lay.names)) {
		r.fail("%d bindings where the rule binds %d variables", n, len(lay.names))
		return Bindings{}
	}
	in := e.store.Interner()
	b := Bindings{lay: lay, ids: e.carveIDs(lay.nids), terms: e.carveTerms(len(lay.names) - lay.nids)}
	for _, i := range lay.sorted {
		if !r.strEq(lay.names[i]) {
			r.fail("binding of a variable other than %s at offset %d", lay.names[i], r.off)
		}
		t := r.term()
		if r.err != nil {
			return Bindings{}
		}
		if i >= lay.nids {
			b.terms[i-lay.nids] = t
			continue
		}
		r.key = t.AppendKey(r.key[:0])
		id, ok := in.LookupKey(r.key)
		if !ok {
			r.fail("bound value %v is not in the dictionary", t)
			return Bindings{}
		}
		b.ids[i] = id
	}
	return b
}

// strEq reads a string and reports whether it equals want, without
// allocating it.
func (r *stateReader) strEq(want string) bool {
	n := r.uint()
	if r.err != nil {
		return false
	}
	if uint64(len(r.data)-r.off) < n {
		r.fail("truncated string of length %d at offset %d", n, r.off)
		return false
	}
	got := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return string(got) == want
}

// rule decodes a program rule index.
func (r *stateReader) rule(p *ast.Program) *ast.Rule {
	idx := r.uint()
	if r.err != nil {
		return nil
	}
	if idx >= uint64(len(p.Rules)) {
		r.fail("rule index %d out of range (%d rules)", idx, len(p.Rules))
		return nil
	}
	return p.Rules[idx]
}

func (r *stateReader) term() term.Term {
	switch tag := r.byte(); tag {
	case tagConstString:
		return term.Str(r.str())
	case tagConstInt:
		return term.Int(r.int())
	case tagConstFloat:
		return term.Float(r.f64())
	case tagConstBool:
		return term.Bool(r.bool())
	case tagVariable:
		return term.Var(r.str())
	case tagNull:
		return term.Null(r.str())
	default:
		if r.err == nil {
			r.fail("unknown term tag %d at offset %d", tag, r.off-1)
		}
		return term.Term{}
	}
}

// ruleInts emits a map keyed by program rules in program order.
func (w *stateWriter) ruleInts(rules []*ast.Rule, ruleIdx map[*ast.Rule]int, m map[*ast.Rule]int) {
	var present []*ast.Rule
	for _, r := range rules {
		if _, ok := m[r]; ok {
			present = append(present, r)
		}
	}
	w.uint(uint64(len(present)))
	for _, r := range present {
		w.uint(uint64(ruleIdx[r]))
		w.int(int64(m[r]))
	}
}

func (r *stateReader) ruleInts(p *ast.Program, into map[*ast.Rule]int) {
	n := r.uint()
	for i := uint64(0); i < n && r.err == nil; i++ {
		rule := r.rule(p)
		v := r.int()
		if r.err == nil && rule != nil {
			into[rule] = int(v)
		}
	}
}
