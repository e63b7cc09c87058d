// Package database implements the extensional/intensional fact store the
// chase engine runs over: interned ground atoms (facts) with stable integer
// ids, per-predicate relations, and hash indexes on (predicate, position,
// value) for efficient join evaluation.
//
// Facts are append-only during a chase — the chase only ever adds facts — so
// fact ids are also the insertion order, which the explanation pipeline uses
// to linearize proofs deterministically. Between chase phases a fact may be
// tombstoned with Retract: it keeps its id (survivors are never renumbered)
// but becomes invisible to every lookup and join index, which is the store
// half of the incremental-maintenance contract (internal/incremental).
// Re-adding a retracted atom interns a fresh fact under a new id.
//
// Alongside the hash indexes the store maintains per-predicate sorted
// columnar indexes (Columnar, see columnar.go): dense column-major value
// arrays plus per-position permutations sorted by (value, fact id), the
// representation the batch-at-a-time join executor scans and probes. They
// are built lazily by EnsureColumnar (all positions) or EnsureColumnarRuns
// (sorted runs for the listed probe positions only, radix-sorted on the
// value id), kept coherent across Add and Retract (appends accumulate in a
// small sorted tail that is LSM-merged into the base; retraction
// invalidates and the next ensure rebuilds), and their maintenance work is
// counted on ColumnarStats.
//
// # Concurrency contract
//
// A Store is not synchronized. It is safe for any number of concurrent
// readers (Match, MatchBind, Lookup, Get, Contains, ByPredicate, Facts,
// Frontier, Len) as long as no writer (Add, MustAdd) runs at the same time.
// EnsureColumnar and EnsureColumnarRuns are writers when the index has
// pending work. A chase runs on one goroutine, so it never reads and writes
// a store at the same time; the serving layer keeps response rendering off
// a store while an incremental repair mutates it.
package database

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/term"
)

// FactID identifies an interned fact. Ids are dense and start at 0 in
// insertion order.
type FactID int

// Fact is an interned ground atom together with its id and whether it was
// part of the original extensional database.
type Fact struct {
	ID   FactID
	Atom ast.Atom
	// Extensional reports whether the fact belongs to the input database D
	// (true) or was derived by a chase step (false).
	Extensional bool
}

// String renders the fact as predicate(args) with unquoted constants.
func (f *Fact) String() string { return f.Atom.Display() }

// Store is an append-only fact store with join indexes. Alongside the
// ast.Atom view, every fact is stored as a flat []term.ValueID row over the
// store's value dictionary, and the (predicate, position, value) index is
// keyed on those dense integer ids — the representation the compiled-plan
// join executor (internal/chase) probes without hashing term strings.
type Store struct {
	facts  []*Fact
	in     *term.Interner
	rows   [][]term.ValueID
	byKey  map[string]FactID
	byPred map[string][]FactID
	// index maps predicate/position/value-id to the facts with that value
	// at that position.
	index map[indexKey][]FactID
	// colIdx holds the lazily built per-predicate sorted columnar indexes
	// (columnar.go); colStats counts their maintenance work.
	colIdx   map[string]*Columnar
	colStats ColumnarStats
	// dead marks tombstoned facts (see Retract). Nil until the first
	// retraction, so the hot Retracted check is a single len test for the
	// append-only common case.
	dead map[FactID]bool
	// epoch counts mutations (Add and Retract). Cache layers fingerprint it
	// to detect that a store changed underneath a memoized artifact.
	epoch uint64
}

type indexKey struct {
	pred string
	pos  int
	val  term.ValueID
}

// NewStore returns an empty fact store.
func NewStore() *Store {
	return &Store{
		in:     term.NewInterner(),
		byKey:  make(map[string]FactID),
		byPred: make(map[string][]FactID),
		index:  make(map[indexKey][]FactID),
	}
}

// Interner exposes the store's value dictionary. Intern is a writer in the
// Store concurrency contract; Lookup and Value are read-only and safe
// alongside other readers.
func (s *Store) Interner() *term.Interner { return s.in }

// Row returns the fact's argument values as interned ids, positionally
// parallel to its atom's terms. The returned slice is shared; callers must
// not mutate it.
func (s *Store) Row(id FactID) []term.ValueID { return s.rows[id] }

// Len returns the number of interned facts.
func (s *Store) Len() int { return len(s.facts) }

// Frontier returns the id one past the newest fact: facts with id <
// Frontier() exist, facts with id >= Frontier() do not yet. Semi-naive
// evaluation snapshots the frontier before a rule's evaluation and treats
// facts at or beyond the snapshot as "new" at the next one.
func (s *Store) Frontier() FactID { return FactID(len(s.facts)) }

// Add interns a ground atom. It returns the fact and whether it was newly
// inserted; adding an atom that is already present returns the existing fact
// with added=false. Non-ground atoms are rejected with an error.
func (s *Store) Add(a ast.Atom, extensional bool) (*Fact, bool, error) {
	if !a.IsGround() {
		return nil, false, fmt.Errorf("database: cannot intern non-ground atom %v", a)
	}
	key := a.Key()
	if id, ok := s.byKey[key]; ok {
		return s.facts[id], false, nil
	}
	f := &Fact{ID: FactID(len(s.facts)), Atom: a, Extensional: extensional}
	s.epoch++
	s.facts = append(s.facts, f)
	s.byKey[key] = f.ID
	s.byPred[a.Predicate] = append(s.byPred[a.Predicate], f.ID)
	row := make([]term.ValueID, len(a.Terms))
	for pos, t := range a.Terms {
		row[pos] = s.in.Intern(t)
		s.index[indexKey{a.Predicate, pos, row[pos]}] = append(s.index[indexKey{a.Predicate, pos, row[pos]}], f.ID)
	}
	s.rows = append(s.rows, row)
	return f, true, nil
}

// LookupKey returns the fact id stored under a canonical atom key
// (ast.Atom.Key bytes), without materializing the key string — the compiler
// elides the []byte→string conversion in the map read, so the vectorized
// emission path of the batch executor (internal/chase) deduplicates derived
// rows against the store with zero allocations per row.
func (s *Store) LookupKey(key []byte) (FactID, bool) {
	id, ok := s.byKey[string(key)]
	return id, ok
}

// AddKeyed is the vectorized-emission fast path of Add: the caller has
// already built the atom's canonical key (byte-equal to a.Key()) and its
// interned row (row[pos] == Interner().Intern(a.Terms[pos])), so Add's
// re-derivation of both is skipped. The caller must also have checked
// LookupKey for absence — AddKeyed inserts unconditionally — and must hand
// over a and row for the store to retain. Every observable effect (fact id
// assignment, epoch, indexes) is identical to Add returning added=true.
func (s *Store) AddKeyed(a ast.Atom, key []byte, row []term.ValueID, extensional bool) *Fact {
	f := &Fact{ID: FactID(len(s.facts)), Atom: a, Extensional: extensional}
	s.epoch++
	s.facts = append(s.facts, f)
	s.byKey[string(key)] = f.ID
	s.byPred[a.Predicate] = append(s.byPred[a.Predicate], f.ID)
	for pos, v := range row {
		s.index[indexKey{a.Predicate, pos, v}] = append(s.index[indexKey{a.Predicate, pos, v}], f.ID)
	}
	s.rows = append(s.rows, row)
	return f
}

// RestoreFact is the snapshot-restore append path: it interns the atom
// unconditionally under the next id, without Add's duplicate check. Snapshot
// payloads replay facts in id order *before* replaying tombstones, so a
// re-added atom (same key as an earlier, later-tombstoned fact) must append
// rather than dedupe; the byKey entry is simply overwritten, and the later
// Retract of the earlier id leaves it pointing at the survivor (Retract only
// deletes the mapping when it still points at the retracted id). Outside
// restore, use Add.
func (s *Store) RestoreFact(a ast.Atom, extensional bool) (*Fact, error) {
	if !a.IsGround() {
		return nil, fmt.Errorf("database: cannot intern non-ground atom %v", a)
	}
	f := &Fact{ID: FactID(len(s.facts)), Atom: a, Extensional: extensional}
	s.epoch++
	s.facts = append(s.facts, f)
	s.byKey[a.Key()] = f.ID
	s.byPred[a.Predicate] = append(s.byPred[a.Predicate], f.ID)
	row := make([]term.ValueID, len(a.Terms))
	for pos, t := range a.Terms {
		row[pos] = s.in.Intern(t)
		s.index[indexKey{a.Predicate, pos, row[pos]}] = append(s.index[indexKey{a.Predicate, pos, row[pos]}], f.ID)
	}
	s.rows = append(s.rows, row)
	return f, nil
}

// SetEpoch overwrites the mutation counter; the snapshot-restore path calls
// it last so a restored store reports the epoch its original had, not the
// number of replay operations it took to rebuild.
func (s *Store) SetEpoch(epoch uint64) { s.epoch = epoch }

// MustAdd is Add for callers with statically ground atoms; it panics on a
// non-ground atom.
func (s *Store) MustAdd(a ast.Atom, extensional bool) (*Fact, bool) {
	f, added, err := s.Add(a, extensional)
	if err != nil {
		panic(err)
	}
	return f, added
}

// Retract tombstones a fact: the id keeps resolving through Get and Row (so
// historical provenance stays readable) but the fact disappears from every
// lookup path — Contains, Lookup, Match, MatchBind, MatchAny, ByPredicate,
// the slot candidates, and the (predicate, position, value) index. Surviving
// facts keep their ids. Re-adding the same atom later interns a fresh fact
// under a new id; the tombstone is never revived, which preserves the
// premises-precede-conclusions id invariant the proof memo relies on.
// Retracting an already-retracted id is a no-op.
func (s *Store) Retract(id FactID) error {
	if id < 0 || int(id) >= len(s.facts) {
		return fmt.Errorf("database: Retract(%d): unknown fact id", id)
	}
	if s.dead[id] {
		return nil
	}
	f := s.facts[id]
	if s.dead == nil {
		s.dead = map[FactID]bool{}
	}
	s.dead[id] = true
	s.epoch++
	// byKey may already point at a newer fact with the same atom (a
	// re-added atom whose old tombstone is retracted again is impossible —
	// dead guard above — but keep the delete guarded anyway).
	if cur, ok := s.byKey[f.Atom.Key()]; ok && cur == id {
		delete(s.byKey, f.Atom.Key())
	}
	s.byPred[f.Atom.Predicate] = removeID(s.byPred[f.Atom.Predicate], id)
	s.invalidateColumnar(f.Atom.Predicate)
	for pos, v := range s.rows[id] {
		k := indexKey{f.Atom.Predicate, pos, v}
		s.index[k] = removeID(s.index[k], id)
		if len(s.index[k]) == 0 {
			delete(s.index, k)
		}
	}
	return nil
}

// removeID deletes one id from a bucket, preserving the order of the rest.
func removeID(bucket []FactID, id FactID) []FactID {
	for i, b := range bucket {
		if b == id {
			return append(bucket[:i], bucket[i+1:]...)
		}
	}
	return bucket
}

// Retracted reports whether the fact id has been tombstoned.
func (s *Store) Retracted(id FactID) bool {
	if len(s.dead) == 0 {
		return false
	}
	return s.dead[id]
}

// LiveLen returns the number of non-retracted facts.
func (s *Store) LiveLen() int { return len(s.facts) - len(s.dead) }

// Epoch returns the store's mutation counter: it increments on every Add and
// Retract, so two reads returning the same value bracket a span with no
// store mutation. Serving caches include it in their fingerprints so an
// entry computed against an older instance version dies instead of being
// served.
func (s *Store) Epoch() uint64 { return s.epoch }

// Contains reports whether the ground atom is already interned.
func (s *Store) Contains(a ast.Atom) bool {
	_, ok := s.byKey[a.Key()]
	return ok
}

// Lookup returns the fact for a ground atom, or nil when absent.
func (s *Store) Lookup(a ast.Atom) *Fact {
	if id, ok := s.byKey[a.Key()]; ok {
		return s.facts[id]
	}
	return nil
}

// Get returns the fact with the given id. It panics on an out-of-range id,
// which always indicates a bug in the caller.
func (s *Store) Get(id FactID) *Fact {
	return s.facts[id]
}

// ByPredicate returns the ids of all facts with the given predicate, in
// insertion order. The returned slice is shared; callers must not mutate it.
func (s *Store) ByPredicate(pred string) []FactID {
	return s.byPred[pred]
}

// Match returns the ids of facts unifying with the (possibly non-ground)
// atom pattern: facts of the same predicate and arity whose constants agree
// with the pattern's constant positions. It uses the most selective
// available index.
func (s *Store) Match(pattern ast.Atom) []FactID {
	candidates := s.candidateIDs(pattern)
	var out []FactID
	for _, id := range candidates {
		if s.matches(s.facts[id].Atom, pattern) {
			out = append(out, id)
		}
	}
	return out
}

// MatchBind returns, for each fact unifying with pattern under the given
// base substitution, the extended substitution binding the pattern's
// variables. Facts that disagree with already-bound variables are skipped.
func (s *Store) MatchBind(pattern ast.Atom, base term.Substitution) []Binding {
	grounded := pattern.Apply(base)
	candidates := s.candidateIDs(grounded)
	var out []Binding
	for _, id := range candidates {
		f := s.facts[id]
		sub := base.Clone()
		if bindAtom(grounded, f.Atom, sub) {
			out = append(out, Binding{Fact: f, Sub: sub})
		}
	}
	return out
}

// Binding pairs a matched fact with the substitution extension it induces.
type Binding struct {
	Fact *Fact
	Sub  term.Substitution
}

// MatchAny reports whether at least one fact unifies with the pattern. It is
// Match with an early exit: the existential pre-emption check of the chase
// only needs existence, not the full id list.
func (s *Store) MatchAny(pattern ast.Atom) bool {
	for _, id := range s.candidateIDs(pattern) {
		if s.matches(s.facts[id].Atom, pattern) {
			return true
		}
	}
	return false
}

// candidateIDs picks the smallest index bucket applicable to the pattern. A
// constant that was never interned cannot occur in any fact, so its (empty)
// bucket wins immediately.
func (s *Store) candidateIDs(pattern ast.Atom) []FactID {
	best := s.byPred[pattern.Predicate]
	for pos, t := range pattern.Terms {
		if t.IsVariable() {
			continue
		}
		var bucket []FactID
		if v, ok := s.in.Lookup(t); ok {
			bucket = s.index[indexKey{pattern.Predicate, pos, v}]
		}
		if len(bucket) < len(best) {
			best = bucket
		}
	}
	return best
}

func (s *Store) matches(fact, pattern ast.Atom) bool {
	if fact.Predicate != pattern.Predicate || len(fact.Terms) != len(pattern.Terms) {
		return false
	}
	sub := term.Substitution{}
	return bindAtom(pattern, fact, sub)
}

// bindAtom extends sub so that pattern maps onto fact, or returns false.
func bindAtom(pattern, fact ast.Atom, sub term.Substitution) bool {
	if pattern.Predicate != fact.Predicate || len(pattern.Terms) != len(fact.Terms) {
		return false
	}
	for i, pt := range pattern.Terms {
		ft := fact.Terms[i]
		if pt.IsVariable() {
			if !sub.Bind(pt.Name(), ft) {
				return false
			}
			continue
		}
		if !pt.Equal(ft) {
			return false
		}
	}
	return true
}

// Facts returns all facts in insertion order. The returned slice is shared;
// callers must not mutate it.
func (s *Store) Facts() []*Fact { return s.facts }

// Predicates returns the distinct predicates with at least one live fact,
// sorted. A predicate whose every fact was retracted is absent.
func (s *Store) Predicates() []string {
	out := make([]string, 0, len(s.byPred))
	for p, ids := range s.byPred {
		if len(ids) > 0 {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Dump renders the store contents grouped by predicate, for debugging and
// golden tests.
func (s *Store) Dump() string {
	var sb strings.Builder
	for _, p := range s.Predicates() {
		for _, id := range s.byPred[p] {
			sb.WriteString(s.facts[id].String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
