// Package chase implements the chase procedure over a Vadalog program
// (Section 3 of the paper): rules are applied to the extensional database
// until fixpoint, incrementally deriving new facts. Every chase step is
// recorded with full provenance — the activated rule, the homomorphism, and
// the premise facts — forming the chase graph G(D,Σ) that the explanation
// pipeline walks to produce proofs.
//
// Aggregations follow Vadalog's monotonic semantics operationally: each
// round recomputes group aggregates over the currently-derived premises; a
// changed aggregate emits a new fact and supersedes the rule's previous
// emission for the same group, so downstream rules only observe the current
// total. Chase steps whose conclusion is isomorphic to an existing fact are
// pre-empted, which guarantees termination for the programs considered in
// the paper (see its Section 5, "Structural Analysis").
//
// # Evaluation strategies and concurrency contract
//
// Evaluation is semi-naive: after its first evaluation a rule only joins
// homomorphisms that use a fact derived since. Body joins run on compiled
// slot-based plans: each rule is compiled once into join plans over the
// store's interned value ids (see plan.go for the compilation scheme and
// the equivalence argument), and one executor runs them with adaptive
// strategies, chosen per rule evaluation from the size of the join's input:
//
//   - Below the measured cut-over (batchMinExtent facts in the largest
//     body predicate, batch.go), and for any semi-naive delta of a handful
//     of facts, a depth-first walk drives a flat binding frame through the
//     plan tuple-at-a-time, probing the store's hash indexes (the frame
//     executor, plan.go). It needs no index beyond the store's own, so it
//     wins on session-sized stores and point updates.
//   - From the cut-over up, a batch-at-a-time pass admits the whole delta
//     into column vectors over the store's sorted columnar indexes
//     (database.Columnar) and runs every join depth, condition, assignment
//     and negation check over whole columns (the batch executor, batch.go),
//     per depth as a scan, a per-tuple run probe, or — from mergeThreshold
//     tuples — a leapfrog merge; a pivot whose own delta is under
//     frameFallbackMin facts falls back to the frame walk.
//
// Every strategy enumerates the same homomorphisms in the same order — both
// executors visit candidates in ascending fact-id order, and the columnar
// runs are sorted by (value, dense position) with dense position equal to
// bucket rank (see batch.go for the full determinism contract) — so facts,
// ids, step order, premises and bindings are byte-identical whichever is
// chosen. A step records its homomorphism as the executor's own frame of
// interned ids under a per-rule layout (Bindings, bindings.go); names are
// resolved only when a step is rendered. Result.JoinStats reports the
// choices made. The differential suites pin each strategy in turn and
// compare it against two reference implementations kept for that purpose
// only: a sequential interpreter that joins with map-based substitutions,
// and naive evaluation, which re-joins every rule against the whole store
// every round.
//
// Run and MustRun are safe to call concurrently — every call builds its
// own engine and store. A *Result and everything reachable from it
// (Store, Steps, Derivations, extracted Proofs) is immutable after Run
// returns and safe for any number of concurrent readers; the explanation
// service serves concurrent queries over shared results this way. The
// internal engine type is not safe for concurrent use: one goroutine runs
// each chase, joins and emission alike.
package chase

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/term"
)

// Contribution is one aggregation contributor: the premise facts of a single
// body homomorphism and the value it contributed to the aggregate.
type Contribution struct {
	// Premises are the body facts of this contributor, in body-atom order.
	Premises []database.FactID
	// Value is the contributed value (the binding of the aggregated
	// variable).
	Value term.Term
	// Sub is the full body homomorphism of this contributor, binding the
	// contributor-varying variables (e.g. the individual debtor and loan
	// amount of one exposure) that the step's own bindings omit.
	Sub Bindings
}

// Derivation records one chase step: how a fact was derived.
type Derivation struct {
	// Step is the global chase step number (0-based, chronological).
	Step int
	// Rule is the activated rule.
	Rule *ast.Rule
	// Fact is the derived fact.
	Fact database.FactID
	// Premises are the distinct premise facts, in body-atom order for
	// plain rules; for aggregation rules they are the union of all
	// contributor premises in first-use order.
	Premises []database.FactID
	// Contributors is non-empty exactly for aggregation rules: one entry
	// per contributing homomorphism.
	Contributors []Contribution
	// Sub is the homomorphism of the chase step. For aggregation rules it
	// binds the group variables and the aggregate target; contributor-only
	// variables are not included.
	Sub Bindings
}

// IsAggregation reports whether the step applied an aggregation rule.
func (d *Derivation) IsAggregation() bool { return len(d.Contributors) > 0 }

// MultiContributor reports whether the aggregation had two or more
// contributors. The template mapper uses this to choose between a reasoning
// path and its "dashed" aggregation variant (paper Section 4.1).
func (d *Derivation) MultiContributor() bool { return len(d.Contributors) > 1 }

// IntensionalPremises returns the premise facts whose predicates are
// intensional in the program, in premise order.
func (d *Derivation) IntensionalPremises(isIDB func(string) bool, store *database.Store) []database.FactID {
	var out []database.FactID
	for _, id := range d.Premises {
		if isIDB(store.Get(id).Atom.Predicate) {
			out = append(out, id)
		}
	}
	return out
}

// String renders the derivation compactly for debugging.
func (d *Derivation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "step %d: rule %s: [", d.Step, d.Rule.Label)
	for i, p := range d.Premises {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "#%d", p)
	}
	fmt.Fprintf(&sb, "] => #%d", d.Fact)
	if d.IsAggregation() {
		fmt.Fprintf(&sb, " (%d contributors)", len(d.Contributors))
	}
	return sb.String()
}

// Result is the outcome of running the chase: the saturated store, the
// chronological list of chase steps, and per-fact derivations.
type Result struct {
	// Program is the program that was run.
	Program *ast.Program
	// Store holds the extensional and derived facts.
	Store *database.Store
	// Steps are all chase steps in chronological order.
	Steps []*Derivation
	// derivs indexes derivations by derived fact; the first entry is the
	// canonical (earliest) derivation used for proofs.
	derivs map[database.FactID][]*Derivation
	// superseded marks aggregate facts replaced by a more complete total.
	superseded map[database.FactID]bool
	// Rounds is the number of evaluation rounds until fixpoint.
	Rounds int
	// LoadSeconds and EvalSeconds split the initial run's wall time into
	// the fact-ingestion phase (interning the program's and the options'
	// extra facts into the store) and the evaluation phase (plan
	// compilation, stratification, the chase to fixpoint, and constraint
	// checking). Pure observability: the differential suites compare
	// results field by field and deliberately ignore these. The join
	// benchmark (`cmd/bench -fig columnar`) reads EvalSeconds so its rows
	// are not diluted by ingestion.
	LoadSeconds float64
	EvalSeconds float64
	// JoinStats says which join strategies served this fixpoint: rule
	// evaluations given to the frame and to the batch executor, the batch
	// executor's leapfrog/probe/scan passes and per-pivot frame fallbacks,
	// and the columnar index builds they paid for — counted on the store
	// since the run (or restore) that created it, up to this snapshot.
	// Observability like the two fields above; never compared.
	JoinStats database.ColumnarStats

	// memoOnce guards the one-time construction of the proof-closure memo;
	// memo is immutable once built (see memo.go). Both are internal to
	// ExtractProof and do not affect the Result's value semantics.
	memoOnce sync.Once
	memo     *proofMemo
}

// Derivations returns all recorded derivations of a fact, earliest first.
// Extensional facts have none.
func (r *Result) Derivations(id database.FactID) []*Derivation {
	return r.derivs[id]
}

// CanonicalDerivation returns the earliest derivation of a fact, or nil for
// extensional facts.
func (r *Result) CanonicalDerivation(id database.FactID) *Derivation {
	ds := r.derivs[id]
	if len(ds) == 0 {
		return nil
	}
	return ds[0]
}

// Superseded reports whether the fact is a stale aggregate emission.
func (r *Result) Superseded(id database.FactID) bool { return r.superseded[id] }

// Derived returns the ids of all non-superseded derived facts of the given
// predicate, in derivation order. With pred == "" it returns all derived
// facts.
func (r *Result) Derived(pred string) []database.FactID {
	var out []database.FactID
	for _, f := range r.Store.Facts() {
		if f.Extensional || r.superseded[f.ID] || r.Store.Retracted(f.ID) {
			continue
		}
		if pred != "" && f.Atom.Predicate != pred {
			continue
		}
		out = append(out, f.ID)
	}
	return out
}

// Answers returns the non-superseded facts of the program's output
// predicate.
func (r *Result) Answers() []database.FactID {
	return r.Derived(r.Program.Output)
}

// LookupDerived finds the non-superseded fact matching the (possibly
// partially ground) pattern; it returns an error when the pattern matches
// zero or several facts.
func (r *Result) LookupDerived(pattern ast.Atom) (database.FactID, error) {
	var hits []database.FactID
	for _, id := range r.Store.Match(pattern) {
		if !r.superseded[id] {
			hits = append(hits, id)
		}
	}
	switch len(hits) {
	case 0:
		return 0, fmt.Errorf("chase: no fact matches %v", pattern.Display())
	case 1:
		return hits[0], nil
	default:
		var alts []string
		for _, id := range hits {
			alts = append(alts, r.Store.Get(id).String())
		}
		sort.Strings(alts)
		return 0, fmt.Errorf("chase: pattern %v is ambiguous: %s", pattern.Display(), strings.Join(alts, "; "))
	}
}
