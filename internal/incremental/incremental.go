// Package incremental maintains a live chase fixpoint under base-fact
// additions and retractions without re-running the chase from scratch.
//
// The maintainer wraps a chase.Live handle (the engine kept resident after
// fixpoint) and implements DRed-style maintenance over the chase graph's
// provenance:
//
//   - Additions become extensional facts and seed a semi-naive delta pass
//     restricted to the rules whose bodies can (transitively) touch the
//     changed predicates, reusing the engine's compiled slot plans and
//     per-rule evaluation boundaries.
//   - Retractions over-delete the downstream closure: because every chase
//     step records its premise facts and premises always precede their
//     conclusion, one forward pass over the step list finds every fact whose
//     recorded proof rests on a retracted one. The closure is tombstoned
//     (ids are never reused), then each over-deleted atom is goal-directedly
//     re-derived if an alternative proof from surviving facts exists, and
//     the delta pass re-derives everything downstream of the survivors.
//   - Aggregates recompute per-group from their surviving contributors: the
//     engine purges contributors whose premises died and marks exactly those
//     groups dirty, so the next evaluation re-emits the affected totals
//     without touching the others.
//   - Stratified negation repairs iteratively: predicates that lost facts
//     reset their negation-reading rules to a full re-join (a vanished
//     blocker can admit homomorphisms no delta revisits), predicates that
//     gained facts invalidate previously admitted derivations (found exactly
//     via each step's stored homomorphism), and the pass repeats until no
//     fact changes. Programs without negation converge in a single pass.
//
// The maintained result is semantically identical to a from-scratch chase
// over the updated base: same live fact set, and every live derived fact
// carries a valid proof over live premises. The differential and fuzz
// suites in this package enforce both properties over random update
// sequences; byte-level fact ids necessarily differ (a re-derived atom gets
// a fresh id), which is why equivalence is stated over atoms and proofs
// rather than ids.
package incremental

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/database"
)

// UpdateStats reports what one Update did.
type UpdateStats struct {
	// Added is the number of base facts actually added (requests for atoms
	// already present count as no-ops).
	Added int `json:"added"`
	// Retracted is the number of base facts actually retracted.
	Retracted int `json:"retracted"`
	// OverDeleted is the number of derived facts tombstoned because their
	// recorded proof rested on a retracted fact.
	OverDeleted int `json:"overDeleted"`
	// Rederived is the number of over-deleted derived atoms that came back
	// through an alternative proof over surviving facts.
	Rederived int `json:"rederived"`
	// DeltaRounds is the number of semi-naive evaluation rounds spent
	// repairing the fixpoint.
	DeltaRounds int `json:"deltaRounds"`
}

// Counters are the maintainer's cumulative statistics across updates, the
// incremental section of the serving /stats endpoint.
type Counters struct {
	Updates     uint64 `json:"updates"`
	DeltaRounds uint64 `json:"deltaRounds"`
	OverDeleted uint64 `json:"overDeleted"`
	Rederived   uint64 `json:"rederived"`
}

// Maintainer owns a live chase fixpoint and applies base-fact updates to it.
// All methods are safe for concurrent use; updates are serialized.
type Maintainer struct {
	mu       sync.Mutex
	live     *chase.Live
	counters Counters
	// broken poisons the maintainer after a failed update: the fixpoint may
	// be partially repaired, so every later call reports the original error
	// instead of serving an inconsistent instance.
	broken error
}

// New runs the chase for the program to fixpoint and returns a maintainer
// holding the live result.
func New(p *ast.Program, opts chase.Options) (*Maintainer, error) {
	return NewContext(context.Background(), p, opts)
}

// NewContext is New under a context: the initial chase run is cancellable at
// its round and rule boundaries. A canceled construction returns
// chase.ErrCanceled/ErrDeadline and no maintainer — nothing to poison, the
// caller simply retries with a live context.
func NewContext(ctx context.Context, p *ast.Program, opts chase.Options) (*Maintainer, error) {
	l, err := chase.RunLiveContext(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	return &Maintainer{live: l}, nil
}

// FromLive wraps an existing live fixpoint — typically one rebuilt by
// chase.RestoreLive from a serialized snapshot — in a fresh maintainer. The
// caller hands over ownership: the Live must not be mutated outside the
// returned maintainer. Counters start at zero (they are process statistics,
// not session state).
func FromLive(l *chase.Live) *Maintainer {
	return &Maintainer{live: l}
}

// EncodeState serializes the maintained fixpoint's complete engine state
// (chase.Live.EncodeState) under the update lock, so the payload is a
// consistent cut: every acknowledged update is in, no in-flight one is. A
// poisoned maintainer refuses — its state is partially repaired and must
// not be checkpointed.
func (m *Maintainer) EncodeState() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return nil, m.poisonErr()
	}
	return m.live.EncodeState()
}

// Result snapshots the current fixpoint. The snapshot stays consistent (and
// explainable) across later updates; take a fresh one to observe them.
func (m *Maintainer) Result() (*chase.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return nil, m.poisonErr()
	}
	return m.live.Snapshot(), nil
}

// Epoch returns the store's mutation counter; it changes exactly when an
// update changed the instance, so caches fingerprint it to detect staleness.
func (m *Maintainer) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live.Store().Epoch()
}

// Stats returns the cumulative update counters.
func (m *Maintainer) Stats() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters
}

// BaseFacts returns the live extensional atoms in id order: the effective
// base instance a from-scratch chase would start from.
func (m *Maintainer) BaseFacts() []ast.Atom {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.live.Store()
	var out []ast.Atom
	for _, f := range st.Facts() {
		if f.Extensional && !st.Retracted(f.ID) {
			out = append(out, f.Atom)
		}
	}
	return out
}

// Resolve reports whether the atom is currently live and whether it is an
// extensional (base) fact. The group committer uses it to pre-validate
// batched retractions against the store before starting an update, so an
// invalid request can be rejected individually instead of failing the whole
// merged batch. A poisoned maintainer resolves nothing.
func (m *Maintainer) Resolve(a ast.Atom) (present, base bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return false, false
	}
	f := m.live.Store().Lookup(a)
	if f == nil {
		return false, false
	}
	return true, f.Extensional
}

// Poisoned returns the poison error after a failed update, nil while the
// maintainer is healthy.
func (m *Maintainer) Poisoned() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken != nil {
		return m.poisonErr()
	}
	return nil
}

// ErrPoisoned marks every error a maintainer returns after a failed update;
// match with errors.Is. The original failure is included as text only —
// deliberately not wrapped — so a maintainer poisoned by a canceled repair
// does not itself read as a cancellation (the poison is permanent; the
// cancellation was transient).
var ErrPoisoned = errors.New("incremental: maintainer unusable after failed update")

func (m *Maintainer) poisonErr() error {
	return fmt.Errorf("%w: %v", ErrPoisoned, m.broken)
}

// Update applies base-fact retractions, then additions, and repairs the
// fixpoint. Retracting an absent atom and adding a present one are no-ops;
// retracting a derived atom is an error (retract its extensional support
// instead); adding an atom that is currently derived promotes it to an
// extensional fact (its derived version and downstream closure are re-built
// over the new base fact). Returns a snapshot of the repaired fixpoint.
//
// A failed update (constraint violation or engine error mid-repair) poisons
// the maintainer: the partially repaired instance is never served, and every
// later call reports the failure. Callers recover by building a new
// maintainer from the intended base.
func (m *Maintainer) Update(add, retract []ast.Atom) (*chase.Result, UpdateStats, error) {
	return m.UpdateContext(context.Background(), add, retract)
}

// UpdateContext is Update under a context. Cancellation has two regimes:
//
//   - Before the first mutation (while the request is still being resolved
//     against the store), a dead context returns chase.ErrCanceled/ErrDeadline
//     and the maintainer stays usable — nothing changed, nothing to poison.
//   - Once repair has started mutating the fixpoint, a cancellation is a
//     mid-repair failure like any other: the maintainer is poisoned, because
//     a half-repaired instance must never be served. Callers that want
//     cancellable updates without that risk should bound the *request* (fail
//     fast before the mutation point) rather than interrupt the repair.
func (m *Maintainer) UpdateContext(ctx context.Context, add, retract []ast.Atom) (*chase.Result, UpdateStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var stats UpdateStats
	if m.broken != nil {
		return nil, stats, m.poisonErr()
	}
	live := m.live
	st := live.Store()

	// Resolve the whole request before mutating anything, so an invalid
	// update leaves the fixpoint untouched. Retractions apply before
	// additions: an atom in both lists is retracted and re-added (fresh id).
	var seeds []database.FactID
	seedSet := map[database.FactID]bool{}
	for _, a := range retract {
		if !a.IsGround() {
			return nil, stats, fmt.Errorf("incremental: retract %v: not ground", a)
		}
		f := st.Lookup(a) // absent (or already tombstoned): no-op
		if f == nil {
			continue
		}
		if !f.Extensional {
			return nil, stats, fmt.Errorf("incremental: cannot retract %v: it is derived, not a base fact", a.Display())
		}
		if !seedSet[f.ID] {
			seedSet[f.ID] = true
			seeds = append(seeds, f.ID)
			stats.Retracted++
		}
	}
	var adds []ast.Atom
	for _, a := range add {
		if !a.IsGround() {
			return nil, stats, fmt.Errorf("incremental: add %v: not ground", a)
		}
		if f := st.Lookup(a); f != nil {
			if f.Extensional && !seedSet[f.ID] {
				continue // already a live base fact, and not being retracted
			}
			if !f.Extensional && !seedSet[f.ID] {
				// Promote a derived atom to a base fact: over-delete the
				// derived version so the re-added extensional one becomes
				// the instance's copy.
				seedSet[f.ID] = true
				seeds = append(seeds, f.ID)
			}
		}
		adds = append(adds, a)
	}
	if len(seeds) == 0 && len(adds) == 0 {
		return live.Snapshot(), stats, nil
	}

	// Last exit before mutation: a request whose context is already dead is
	// rejected typed but un-poisoned — the fixpoint has not been touched.
	if err := chase.ContextErr(ctx); err != nil {
		return nil, stats, err
	}
	live.SetContext(ctx)
	defer live.SetContext(nil)

	fail := func(err error) (*chase.Result, UpdateStats, error) {
		m.broken = err
		return nil, stats, err
	}

	// DRed over-delete: tombstone the downstream closure of every seed.
	cands, lost, err := m.overDelete(seeds, &stats)
	if err != nil {
		return fail(err)
	}

	gained := map[string]bool{}
	for _, a := range adds {
		added, err := live.AddBase(a)
		if err != nil {
			return fail(err)
		}
		if added {
			stats.Added++
			gained[a.Predicate] = true
		}
	}

	dirty := make(map[string]bool, len(lost)+len(gained))
	for p := range lost {
		dirty[p] = true
	}
	for p := range gained {
		dirty[p] = true
	}

	if len(seeds) > 0 {
		// Tombstoning can un-pre-empt existential rules and unblock
		// negation readers; both need a full re-join (deltas never revisit
		// old facts).
		live.ResetExistentialRules()
		live.ResetNegationReaders(lost)
	}

	// Repair to fixpoint. Each pass: retract derivations that a gained
	// blocker invalidates, goal-directedly re-derive over-deleted atoms
	// with alternative proofs, then run the semi-naive delta over the dirty
	// predicate cone. Without negation one pass suffices (nothing a pass
	// derives can invalidate another derivation); with negation the passes
	// iterate — bounded by the rule count, far above the strata depth that
	// actually limits the cascade.
	maxPasses := len(live.Program().Rules) + 4
	for pass := 0; ; pass++ {
		if pass > maxPasses {
			return fail(fmt.Errorf("incremental: repair did not converge after %d passes", maxPasses))
		}
		deleted := false
		if live.HasNegation() {
			bad := live.InvalidatedByNegation()
			bad = append(bad, live.RevalidateNegatedContributors(dirty)...)
			if len(bad) > 0 {
				more, lost2, err := m.overDelete(bad, &stats)
				if err != nil {
					return fail(err)
				}
				cands = append(cands, more...)
				for p := range lost2 {
					dirty[p] = true
				}
				live.ResetNegationReaders(lost2)
				live.ResetExistentialRules()
				deleted = true
			}
		}
		before := st.Len()
		for _, a := range cands {
			if _, err := live.Rederive(a); err != nil {
				return fail(err)
			}
		}
		rounds, err := live.Saturate(dirty)
		if err != nil {
			return fail(err)
		}
		stats.DeltaRounds += rounds
		if !live.HasNegation() {
			break
		}
		if !deleted && st.Len() == before {
			break
		}
	}

	if err := live.CheckConstraints(); err != nil {
		return fail(err)
	}

	// An over-deleted atom counts as re-derived when it is live again as a
	// derived fact — whether the goal-directed search or the delta pass
	// brought it back.
	seen := map[string]bool{}
	for _, a := range cands {
		key := a.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		if f := st.Lookup(a); f != nil && !f.Extensional {
			stats.Rederived++
		}
	}

	m.counters.Updates++
	m.counters.DeltaRounds += uint64(stats.DeltaRounds)
	m.counters.OverDeleted += uint64(stats.OverDeleted)
	m.counters.Rederived += uint64(stats.Rederived)
	return live.Snapshot(), stats, nil
}

// overDelete tombstones the seeds and every fact whose recorded proof rests
// on them, returning the non-superseded deleted atoms (in fact-id order, so
// re-derivation visits premises before conclusions) and the predicates that
// lost facts. The forward pass over the step list is exact because premises
// always precede their conclusion and live facts never rest on facts
// tombstoned by an earlier update.
func (m *Maintainer) overDelete(seeds []database.FactID, stats *UpdateStats) ([]ast.Atom, map[string]bool, error) {
	st := m.live.Store()
	closure := map[database.FactID]bool{}
	for _, id := range seeds {
		if !st.Retracted(id) {
			closure[id] = true
		}
	}
	lost := map[string]bool{}
	if len(closure) == 0 {
		return nil, lost, nil
	}
	for _, d := range m.live.Steps() {
		if closure[d.Fact] || st.Retracted(d.Fact) {
			continue
		}
		for _, p := range d.Premises {
			if closure[p] {
				closure[d.Fact] = true
				break
			}
		}
	}
	ids := chase.SortedIDs(closure)
	var cands []ast.Atom
	for _, id := range ids {
		f := st.Get(id)
		lost[f.Atom.Predicate] = true
		if !f.Extensional {
			stats.OverDeleted++
		}
		if !m.live.Superseded(id) {
			cands = append(cands, f.Atom)
		}
	}
	if _, err := m.live.Retract(ids); err != nil {
		return nil, nil, err
	}
	return cands, lost, nil
}
