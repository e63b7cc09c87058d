package chase

// Recorded homomorphisms. A chase step's bindings are stored the way the
// compiled executor already holds them: a per-rule layout names the
// variables once, and each step keeps only its values — interned value ids
// for variables bound by body atoms (resolved through the store's
// dictionary on lookup) and terms for computed values (assignment targets,
// aggregate totals, existential nulls). A step costs one id per atom-bound
// variable instead of a map from names to 72-byte terms; names are resolved
// only at the edge, when the verbalizer renders a step or a snapshot is
// written.
//
// The engine carves every recorded frame out of slabs it owns (engine.keep),
// never out of an executor's buffers, so a later evaluation that reuses its
// buffers cannot rewrite recorded provenance. Frames are immutable once
// recorded.

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/term"
)

// Bindings is the homomorphism of one chase step or aggregation contributor:
// variable name → term for every variable the step binds. The zero value
// binds nothing.
type Bindings struct {
	lay   *layout
	ids   []term.ValueID
	terms []term.Term
}

// layout is the variable table shared by every Bindings of one rule and
// shape: names[:nids] resolve through ids, names[nids:] are held as terms.
type layout struct {
	in     *term.Interner
	names  []string
	nids   int
	sorted []int // indexes into names in name order: the snapshot order
}

func newLayout(in *term.Interner, ids, terms []string) *layout {
	l := &layout{in: in, names: append(append([]string(nil), ids...), terms...), nids: len(ids)}
	l.sorted = make([]int, len(l.names))
	for i := range l.sorted {
		l.sorted[i] = i
	}
	sort.Slice(l.sorted, func(a, b int) bool { return l.names[l.sorted[a]] < l.names[l.sorted[b]] })
	return l
}

// index returns the position of a variable in the layout, or -1.
func (l *layout) index(name string) int {
	for i, n := range l.names {
		if n == name {
			return i
		}
	}
	return -1
}

// size returns the number of bound variables.
func (b Bindings) size() int { return len(b.ids) + len(b.terms) }

// at returns the term at layout position i, which must be bound.
func (b Bindings) at(i int) term.Term {
	if i < b.lay.nids {
		return b.lay.in.Value(b.ids[i])
	}
	return b.terms[i-b.lay.nids]
}

// Lookup returns the term bound to a variable. Atom-bound variables resolve
// to the dictionary representative of their value, which renders exactly
// like every term of that value.
func (b Bindings) Lookup(name string) (term.Term, bool) {
	if b.lay == nil {
		return term.Term{}, false
	}
	if i := b.lay.index(name); i >= 0 && i < b.size() {
		return b.at(i), true
	}
	return term.Term{}, false
}

// Substitution materializes the bindings as a map.
func (b Bindings) Substitution() term.Substitution {
	sub := make(term.Substitution, b.size())
	for i := 0; i < b.size(); i++ {
		sub[b.lay.names[i]] = b.at(i)
	}
	return sub
}

// apply resolves t under the bindings, like term.Substitution.Apply.
func (b Bindings) apply(t term.Term) term.Term {
	if t.IsVariable() {
		if v, ok := b.Lookup(t.Name()); ok {
			return v
		}
	}
	return t
}

// ground applies the bindings to every term of an atom; unbound variables
// stay variables (the restricted chase's pre-emption pattern).
func (b Bindings) ground(a ast.Atom) ast.Atom {
	out := ast.Atom{Predicate: a.Predicate, Terms: make([]term.Term, len(a.Terms))}
	for i, t := range a.Terms {
		out.Terms[i] = b.apply(t)
	}
	return out
}

// holds evaluates a condition under the bindings with ast.Condition.Holds
// semantics.
func (b Bindings) holds(c ast.Condition) (bool, error) {
	l, r := b.apply(c.Left), b.apply(c.Right)
	if l.IsVariable() {
		return false, fmt.Errorf("condition %v: unbound variable %s", c, l.Name())
	}
	if r.IsVariable() {
		return false, fmt.Errorf("condition %v: unbound variable %s", c, r.Name())
	}
	return condHolds(c.Op, l, r, c)
}

// Slab sizes: slabs start small, so a session-sized engine carves a few
// hundred bytes, and double up to a cap — an id slab then holds the frames
// of a few hundred steps, a term slab the computed values of about as many.
const (
	idSlabMin, idSlabMax     = 64, 2048
	termSlabMin, termSlabMax = 8, 256
)

// keep copies transient bindings into engine-owned slabs.
func (e *engine) keep(b Bindings) Bindings {
	ids, terms := e.carveIDs(len(b.ids)), e.carveTerms(len(b.terms))
	copy(ids, b.ids)
	copy(terms, b.terms)
	b.ids, b.terms = ids, terms
	return b
}

// carveIDs returns n fresh ids from the slab, capped so an append cannot
// reach the next frame.
func (e *engine) carveIDs(n int) []term.ValueID {
	if n == 0 {
		return nil
	}
	if cap(e.idSlab)-len(e.idSlab) < n {
		e.idSlab = make([]term.ValueID, 0, max(n, min(max(2*cap(e.idSlab), idSlabMin), idSlabMax)))
	}
	at := len(e.idSlab)
	e.idSlab = e.idSlab[:at+n]
	return e.idSlab[at : at+n : at+n]
}

func (e *engine) carveTerms(n int) []term.Term {
	if n == 0 {
		return nil
	}
	if cap(e.termSlab)-len(e.termSlab) < n {
		e.termSlab = make([]term.Term, 0, max(n, min(max(2*cap(e.termSlab), termSlabMin), termSlabMax)))
	}
	at := len(e.termSlab)
	e.termSlab = e.termSlab[:at+n]
	return e.termSlab[at : at+n : at+n]
}
