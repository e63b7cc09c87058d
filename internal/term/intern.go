package term

// Value interning (dictionary encoding). The chase's compiled-plan engine
// stores facts as flat []ValueID rows and joins by comparing dense integer
// ids instead of hashing canonical term strings; the Interner is the
// per-store dictionary behind that representation. Production Datalog
// engines (Nemo, Vadalog) attribute much of their join throughput to
// exactly this encoding.

// ValueID is a dense integer handle for an interned ground term. Ids are
// assigned in interning order starting at 0 and are stable for the lifetime
// of the Interner. Two ground terms receive the same ValueID exactly when
// their canonical keys coincide (Term.Key) — in particular, numerically
// equal int and float constants share an id, mirroring Term.Equal's
// comparison semantics, so id equality is term equality.
type ValueID int32

// NoValue is the sentinel for an unbound binding-frame slot; it is never a
// valid interned id.
const NoValue ValueID = -1

// Interner is a bidirectional dictionary between ground terms and dense
// ValueIDs. The zero value is not usable; call NewInterner.
//
// An Interner is not synchronized. Intern writes; Lookup, Value and Len only
// read, so any number of readers may call them concurrently while no Intern
// runs (see database.Store's concurrency contract).
type Interner struct {
	byKey map[string]ValueID
	terms []Term
	// nums caches the float64 value of numeric ids (parallel to terms);
	// isNum marks which entries are valid. The batch join executor
	// (internal/chase/batch.go) evaluates numeric comparisons over whole
	// candidate runs through this cache instead of materializing a Term per
	// candidate.
	nums  []float64
	isNum []bool
}

// NewInterner returns an empty dictionary.
func NewInterner() *Interner {
	return &Interner{byKey: make(map[string]ValueID)}
}

// Intern returns the id of t, assigning the next dense id if t was not seen
// before. The first term interned under a key becomes the representative
// returned by Value; for key-sharing numeric terms (3 and 3.0) the
// representative renders identically to every term it stands for.
func (in *Interner) Intern(t Term) ValueID {
	key := t.Key()
	if id, ok := in.byKey[key]; ok {
		return id
	}
	id := ValueID(len(in.terms))
	in.byKey[key] = id
	in.terms = append(in.terms, t)
	f, ok := t.AsFloat()
	in.nums = append(in.nums, f)
	in.isNum = append(in.isNum, ok)
	return id
}

// Numeric returns the float64 value of an interned id when its
// representative term is an int or float constant (ok=false otherwise). It is
// Value(id).AsFloat() as two array loads — the form the batch executor's
// vectorized condition filters need. Key-sharing numeric terms (3 and 3.0)
// have the same float value, so the cache is representative-independent.
func (in *Interner) Numeric(id ValueID) (float64, bool) {
	return in.nums[id], in.isNum[id]
}

// Lookup returns the id of t without interning. ok is false when t was never
// interned — no stored value can equal it.
func (in *Interner) Lookup(t Term) (ValueID, bool) {
	id, ok := in.byKey[t.Key()]
	return id, ok
}

// LookupKey is Lookup by canonical key bytes (Term.AppendKey); the probe
// does not allocate.
func (in *Interner) LookupKey(key []byte) (ValueID, bool) {
	id, ok := in.byKey[string(key)]
	return id, ok
}

// Value returns the representative term of an interned id. It panics on an
// out-of-range id, which always indicates a caller bug.
func (in *Interner) Value(id ValueID) Term { return in.terms[id] }

// Len returns the number of distinct interned values.
func (in *Interner) Len() int { return len(in.terms) }
