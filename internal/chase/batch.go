package chase

// Batch-at-a-time columnar join execution: the strategy the engine picks for
// rule evaluations over large inputs (engine.chooseBatch, batchMinExtent
// below).
//
// The frame executor (plan.go) is tuple-at-a-time: one depth-first walk per
// seed match, probing the store's hash indexes per partial binding. The
// batch executor processes an entire semi-naive delta per rule in one
// vectorized pass over the sorted columnar indexes (database.Columnar): the
// tuple set lives column-wise (one dense []term.ValueID per bound slot, one
// []database.FactID per bound body atom), every join depth extends all
// tuples at once against the predicate's columnar runs, pushed-down steps
// run as whole-column filters with vectorized fast paths, and the columns
// either convert to []binding at the emission boundary (aggregation,
// constraints) or feed the vectorized emission path directly
// (engine.emitCols). Its first pass over a predicate pays for that
// predicate's columnar index; a store has to be big enough for the passes
// to earn that back, which is what batchMinExtent measures.
//
// Join strategies. Per depth, newBatchExec picks the cheapest probe
// (constant run, bound-slot run, or extent scan); a bound-slot probe over a
// large enough tuple set (mergeThreshold) upgrades at run time to a unary
// leapfrog triejoin: the tuple set is sorted by the join-key slot once (the
// plan's join-key ordering pass, orderedPlan.keyPos, chains consecutive
// depths on a shared slot so only the first depth of a chain pays the
// sort), and a galloping RunIter intersects the distinct ascending key
// values against the sorted runs in lockstep — one Seek per distinct value
// instead of one hash/binary-search probe per tuple, with the per-value
// candidate list filtered once and crossed with the whole tuple group.
// Pivots whose semi-naive delta is tiny (frameFallbackMin) delegate to the
// frame executor, which wins on point lookups.
//
// Fused condition kernels. Conditions whose operands are constants and
// slots, at least one written by the depth's atom, are evaluated during the
// extension itself, over candidate values still in the dense columns —
// before any output row materializes. Equality/inequality fuse completely
// (id comparison is term equality for interned values, and cannot error);
// numeric ordering fuses as a branch-light prefilter over
// Interner.Numeric that passes any non-numeric pair through to the
// retained column filter, so it cannot error either and the batch pass
// never surfaces an error on a tuple the frame executor would have
// dropped.
//
// Determinism contract. The batch output is byte-identical to the frame
// executor's (and hence to the reference interpreter's), which is what lets
// the engine switch between them per rule evaluation:
//
//   - The frame executor's leaf order is the lexicographic order of the
//     per-depth fact-id choices (per depth it enumerates candidates in
//     ascending fact-id order, and the walk is depth-first). Every leaf's
//     fact-id tuple is unique (the choice sequence is the leaf), so that
//     order is recoverable from the leaf columns alone. Probe- and
//     scan-strategy extensions preserve it directly (tuples in order,
//     candidates per tuple in dense order, which is fact-id order); a merge
//     extension perturbs it (tuples regroup by join-key value) and marks
//     the tuple set, and restoreCanonical re-sorts the leaves by their
//     fact-id columns in depth order before they become visible — an
//     unambiguous sort, since there are no ties.
//   - Pushed-down steps are per-tuple filters and deterministic functions of
//     bound operands; running them column-wise keeps the surviving set
//     identical, and filters never reorder survivors. The vectorized fast
//     paths are semantics-preserving: id equality coincides with
//     term.Term.Equal for interned values (numerically equal int/float
//     constants share an id), and term.Interner.Numeric returns exactly the
//     AsFloat view that Term.Compare uses for numeric ordering; every other
//     case falls back to the shared condHolds/arithCombine helpers.
//   - Strategy choices (probe position, merge upgrade, frame fallback)
//     depend only on store state and tuple counts, and every strategy
//     yields the same canonical output.
//
// The one intended divergence, shared with the frame executor's pushdown
// (see plan.go): on ill-typed programs that error at run time, the batch
// pass evaluates depth-by-depth — and fused kernels drop tuples before
// unfused steps run — where the frame executor recurses tuple-by-tuple, so
// the batch pass may surface a different deterministic error, or none at
// all, on a program whose frame evaluation errors. It never errors on a
// program whose frame evaluation succeeds: full fusion is restricted to
// non-erroring equality kernels, and ordering kernels only drop pairs the
// retained (identically-ordered) column filters would drop anyway. The
// differential suites skip error programs.

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/term"
)

const (
	// batchMinExtent is the cut-over between the two executors: a rule
	// evaluation runs on the batch executor once its largest body predicate
	// holds this many facts (engine.chooseBatch). It is picked from
	// BenchmarkJoinCutover (cutover_bench_test.go), which pins the engine to
	// either executor on the same chase; eval time in µs, frame / batch,
	// go1.24.0 on 2 cores, by extensional facts:
	//
	//	bundled apps on their scenarios (4-17)   38/45  75/87  58/68  124/129
	//	ControlChainJoint(12,3), the benchmark's
	//	chase.small_run_us instance (17)          412 / 499
	//	two-hop over LayeredOwnership             1040: 193/318   2100: 586/657
	//	                                          3096: 976/891   4128: 1694/1397
	//	                                          16448: 6576/4569   153900: 102845/51642
	//	majority-reach over LayeredOwnership      1040: 124/214   2100: 355/523
	//	                                          3096: 627/728   4128: 924/718
	//	                                          16448: 5571/2133   153900: 74468/18499
	//	company control over RandomControl        2271: 12884/12258   7550: 56921/54852
	//	(kg_batch's shape)                        15062: 132517/123151   75123: 1005631/784012
	//
	// The frame executor wins below about three thousand facts (by 4-21% on
	// session-sized stores, up to 1.7x on join-bound ones), the batch
	// executor from about four thousand, by a margin that grows with the
	// store (2x and 4x at 150k facts; EXPERIMENTS.md has the million-fact
	// end); aggregation-bound chases are within 7% either way at every size.
	batchMinExtent = 4096
	// mergeThreshold is the tuple count at which a bound-slot probe upgrades
	// to the sorted-merge (leapfrog) extension. Below it, per-tuple galloping
	// probes win — no sort, and the run cursor still advances monotonically
	// when the input happens to be sorted.
	mergeThreshold = 32
	// frameFallbackMin is the semi-naive delta size below which a pivot is
	// delegated to the tuple-at-a-time frame executor (point-lookup joins on
	// one or two new facts don't amortize columnar pass setup).
	frameFallbackMin = 16
	// permRadixMin is the permutation size at which sortPermByKey switches
	// from comparison sort to two-pass LSD radix.
	permRadixMin = 2048
)

// batchCols is the column-wise tuple set flowing through one batch pass:
// tuple i is the cross-section of all non-nil columns at index i. A nil
// column means the slot/val/atom is not bound yet at the current depth.
type batchCols struct {
	n     int
	slots [][]term.ValueID
	vals  [][]term.Term
	facts [][]database.FactID
	// perturbed marks that tuple order no longer equals the frame executor's
	// depth-first order (a merge extension regrouped tuples by join key);
	// restoreCanonical re-sorts at the leaf. sortedBy is the slot the tuples
	// are currently sorted by (ascending ValueID), or -1 — it lets a chained
	// merge extension on the same slot skip its sort.
	perturbed bool
	sortedBy  int
}

func newBatchCols(n int, p *plan) *batchCols {
	return &batchCols{
		n:        n,
		slots:    make([][]term.ValueID, p.nslots),
		vals:     make([][]term.Term, p.nvals),
		facts:    make([][]database.FactID, len(p.rule.Body)),
		sortedBy: -1,
	}
}

// Admission modes (semi-naive pivot filter translated to dense space) and
// probe strategies of one join depth.
const (
	admitAny = iota
	admitOld // dense index < bound (facts older than the boundary)
	admitNew // dense index >= bound (facts at or beyond the boundary)
)

const (
	scanExtent = iota // no usable constant/bound position: scan the extent
	probeConst        // seek a constant position once per pass
	probeBound        // seek a bound-slot position per tuple, or merge
)

// fusedOperand is one operand of a fused condition kernel, resolved against
// the extension: a constant (pre-resolved id and numeric value), a
// candidate-side dense column (the depth's atom writes the slot), or an
// input-side slot column.
type fusedOperand struct {
	isConst bool
	candCol []term.ValueID // candidate-side dense column; nil otherwise
	slot    int            // input-side slot index (when !isConst && candCol == nil)
	t       term.Term
	id      term.ValueID // interned id of the constant; NoValue if never interned
	f       float64
	fOK     bool
}

func (o *fusedOperand) idAt(st *batchCols, i int, k int32) term.ValueID {
	if o.isConst {
		return o.id
	}
	if o.candCol != nil {
		return o.candCol[k]
	}
	return st.slots[o.slot][i]
}

func (o *fusedOperand) numAt(in *term.Interner, st *batchCols, i int, k int32) (float64, bool) {
	if o.isConst {
		return o.f, o.fOK
	}
	if o.candCol != nil {
		return in.Numeric(o.candCol[k])
	}
	return in.Numeric(st.slots[o.slot][i])
}

// fusedCond is a condition lowered to a branch-light kernel over dense
// columns. Equality kernels replace their step; ordering kernels are
// prefilters (the step is retained) that pass non-numeric pairs through, so
// neither can error — see the package comment for why that matters.
type fusedCond struct {
	op   ast.CompareOp
	l, r fusedOperand
}

// hold evaluates the kernel for input tuple i against candidate k. candOnly
// kernels are called with a nil tuple set (they read no input column).
func (fc *fusedCond) hold(in *term.Interner, st *batchCols, i int, k int32) bool {
	switch fc.op {
	case ast.OpEq:
		return fc.l.idAt(st, i, k) == fc.r.idAt(st, i, k)
	case ast.OpNe:
		return fc.l.idAt(st, i, k) != fc.r.idAt(st, i, k)
	}
	lf, lok := fc.l.numAt(in, st, i, k)
	rf, rok := fc.r.numAt(in, st, i, k)
	if !lok || !rok {
		return true // defer to the retained column filter
	}
	switch fc.op {
	case ast.OpLt:
		return lf < rf
	case ast.OpLe:
		return lf <= rf
	case ast.OpGt:
		return lf > rf
	case ast.OpGe:
		return lf >= rf
	}
	return true
}

type posVal struct {
	pos int
	val term.ValueID
}

type posPos struct {
	pos, ref int
}

type posSlot struct {
	pos, slot int
}

// batchAdmit is the precompiled candidate admission of one join depth: the
// columnar index, the pattern ops with cached dense columns, the pivot-
// filter mode, the chosen probe strategy, and the fused condition kernels.
// It is immutable after newBatchExec.
type batchAdmit struct {
	atomIdx int
	c       *database.Columnar
	ops     []database.SlotOp
	// cols caches c.Col(pos) per pattern position.
	cols [][]term.ValueID
	// writePoss/writeSlots are the SlotWrite positions and their slots.
	writePoss  []int
	writeSlots []int
	mode       int
	bound      int32
	strategy   int
	probePos   int
	probeVal   term.ValueID
	probeSlot  int
	// Candidate-static checks (tuple-independent: constants, repeated
	// variables) and tuple-dependent checks (bound slots); the probed
	// position is excluded from its list, the run search guarantees it.
	constChecks []posVal
	sameChecks  []posPos
	boundChecks []posSlot
	// candFused reads only constants and candidate columns (applied once per
	// candidate list); pairFused also reads input slots (applied per pair).
	candFused []fusedCond
	pairFused []fusedCond
}

// admitCand checks the tuple-independent part of admission for dense index k.
func (ad *batchAdmit) admitCand(k int32) bool {
	switch ad.mode {
	case admitOld:
		if k >= ad.bound {
			return false
		}
	case admitNew:
		if k < ad.bound {
			return false
		}
	}
	if ad.c.RowLen(k) != len(ad.ops) {
		return false
	}
	for _, cc := range ad.constChecks {
		if ad.cols[cc.pos][k] != cc.val {
			return false
		}
	}
	for _, sc := range ad.sameChecks {
		if ad.cols[sc.pos][k] != ad.cols[sc.ref][k] {
			return false
		}
	}
	return true
}

// admitTuple checks the tuple-dependent part: bound slots of tuple i against
// candidate k.
func (ad *batchAdmit) admitTuple(st *batchCols, i int, k int32) bool {
	for _, bc := range ad.boundChecks {
		if ad.cols[bc.pos][k] != st.slots[bc.slot][i] {
			return false
		}
	}
	return true
}

// batchExec runs one ordered plan batch-at-a-time. It is immutable after
// construction: all per-pass mutable state lives in batchCols values and
// local buffers.
type batchExec struct {
	e      *engine
	p      *plan
	op     *orderedPlan
	in     *term.Interner
	admits []batchAdmit
	// steps[d] is op.steps[d] minus the conditions replaced by fused
	// equality kernels (retained ordering prefilters keep their step).
	steps [][]planStep
}

// ensurePlanColumnar refreshes the columnar index of every body predicate of
// the plan, with sorted runs for exactly the positions some ordered plan of
// the rule can probe — the constant and bound positions of its slot ops;
// write positions only ever need the dense columns. The engine calls it at
// the start of every batch join, so the per-pivot newBatchExec calls find
// every run already built.
func (e *engine) ensurePlanColumnar(p *plan) {
	need := make(map[string][]int, len(p.rule.Body))
	for _, a := range p.rule.Body {
		if _, ok := need[a.Predicate]; !ok {
			need[a.Predicate] = nil
		}
	}
	for _, op := range p.orders {
		for d := range op.atoms {
			pa := &op.atoms[d]
			need[pa.Predicate] = append(need[pa.Predicate], probePositions(pa.Ops)...)
		}
	}
	for pred, poss := range need {
		e.store.EnsureColumnarRuns(pred, poss)
	}
}

// probePositions lists the positions of one atom's slot ops that the
// executor could select as a probe: constants and already-bound slots.
func probePositions(ops []database.SlotOp) []int {
	var poss []int
	for pos, sop := range ops {
		if sop.Kind == database.SlotConst || sop.Kind == database.SlotBound {
			poss = append(poss, pos)
		}
	}
	return poss
}

// newBatchExec precompiles one ordered plan against the current columnar
// indexes. pivot < 0 selects the unfiltered full join; otherwise the
// standard pivot filter (atoms before the pivot match only pre-boundary
// facts, the pivot only post-boundary ones) is translated to dense-index
// comparisons. Constant operands of fused kernels are resolved against the
// interner here, once per pass.
func (e *engine) newBatchExec(p *plan, op *orderedPlan, pivot int, boundary database.FactID) *batchExec {
	bx := &batchExec{
		e:      e,
		p:      p,
		op:     op,
		in:     e.store.Interner(),
		admits: make([]batchAdmit, len(op.atoms)),
		steps:  make([][]planStep, len(op.atoms)),
	}
	for d := range op.atoms {
		pa := &op.atoms[d]
		atomIdx := op.order[d]
		c := e.store.EnsureColumnarRuns(pa.Predicate, probePositions(pa.Ops))
		ad := &bx.admits[d]
		ad.atomIdx = atomIdx
		ad.c = c
		ad.ops = pa.Ops
		ad.cols = make([][]term.ValueID, len(pa.Ops))
		for pos, sop := range pa.Ops {
			ad.cols[pos] = c.Col(pos)
			if sop.Kind == database.SlotWrite {
				ad.writePoss = append(ad.writePoss, pos)
				ad.writeSlots = append(ad.writeSlots, sop.Slot)
			}
		}
		if pivot >= 0 && atomIdx <= pivot {
			if atomIdx < pivot {
				ad.mode = admitOld
			} else {
				ad.mode = admitNew
			}
			ad.bound = c.DenseBoundary(boundary)
		}
		// Probe selection: the cheapest of scanning the extent, the exact
		// run of a constant position, and the estimated run of a bound
		// position. Any choice yields the same candidates in the same
		// canonical output; this only sets the work per tuple.
		ad.strategy = scanExtent
		ad.probePos = -1
		bestCost := c.Extent()
		for pos, sop := range pa.Ops {
			switch sop.Kind {
			case database.SlotConst:
				if n := c.RunLen(pos, sop.Val); n < bestCost {
					bestCost = n
					ad.strategy = probeConst
					ad.probePos = pos
					ad.probeVal = sop.Val
				}
			case database.SlotBound:
				if n := c.AvgRun(pos); n < bestCost {
					bestCost = n
					ad.strategy = probeBound
					ad.probePos = pos
					ad.probeSlot = sop.Slot
				}
			}
		}
		// Join-key preference: when the bound probe would not continue the
		// plan's shared variable order (orderedPlan.keyPos) but the chain
		// position is competitive, take the chain position — a merge
		// extension on the chained slot skips its sort entirely.
		if ad.strategy == probeBound && op.keyPos != nil && op.keyPos[d] >= 0 && op.keyPos[d] != ad.probePos {
			if kp := op.keyPos[d]; pa.Ops[kp].Kind == database.SlotBound {
				if n := c.AvgRun(kp); n <= 4*bestCost {
					ad.probePos = kp
					ad.probeSlot = pa.Ops[kp].Slot
				}
			}
		}
		// Split the per-candidate checks: the probed position is guaranteed
		// by the run search and excluded from its own class.
		for pos, sop := range pa.Ops {
			switch sop.Kind {
			case database.SlotConst:
				if ad.strategy == probeConst && pos == ad.probePos {
					continue
				}
				ad.constChecks = append(ad.constChecks, posVal{pos: pos, val: sop.Val})
			case database.SlotBound:
				if ad.strategy == probeBound && pos == ad.probePos {
					continue
				}
				ad.boundChecks = append(ad.boundChecks, posSlot{pos: pos, slot: sop.Slot})
			case database.SlotSame:
				for pos2 := 0; pos2 < pos; pos2++ {
					if pa.Ops[pos2].Kind == database.SlotWrite && pa.Ops[pos2].Slot == sop.Slot {
						ad.sameChecks = append(ad.sameChecks, posPos{pos: pos, ref: pos2})
						break
					}
				}
			}
		}
		bx.steps[d] = bx.fuseSteps(ad, op.steps[d])
	}
	return bx
}

// fuseSteps lowers the fusable conditions of one depth into kernels on the
// admission and returns the remaining step list. A condition fuses when all
// its non-constant operands are atom-bound slots and at least one is
// written by this depth's atom (otherwise the step would gain nothing);
// equality kernels replace their step, ordering kernels keep it as the
// deciding filter (the kernel is a pure never-erroring prefilter).
func (bx *batchExec) fuseSteps(ad *batchAdmit, steps []planStep) []planStep {
	candPosOf := func(slot int) int {
		for w, s := range ad.writeSlots {
			if s == slot {
				return ad.writePoss[w]
			}
		}
		return -1
	}
	fuseOperand := func(o planOperand) (fo fusedOperand, ok, cand bool) {
		if o.isConst {
			fo.isConst = true
			fo.t = o.t
			fo.id = term.NoValue
			if id, found := bx.in.Lookup(o.t); found {
				// Resolved once per pass: the join phase never interns, so
				// the id view is stable until the next newBatchExec.
				fo.id = id
			}
			fo.f, fo.fOK = o.t.AsFloat()
			return fo, true, false
		}
		if o.kind != refSlot {
			return fo, false, false // computed values keep the column filter
		}
		if cp := candPosOf(o.idx); cp >= 0 {
			fo.candCol = ad.cols[cp]
			return fo, true, true
		}
		fo.slot = o.idx
		return fo, true, false
	}
	var kept []planStep
	copied := false
	for si := range steps {
		s := &steps[si]
		dropStep := false
		if c := s.cond; c != nil && !(c.l.isConst && c.r.isConst) {
			l, lok, lcand := fuseOperand(c.l)
			r, rok, rcand := fuseOperand(c.r)
			if lok && rok && (lcand || rcand) {
				fc := fusedCond{op: c.op, l: l, r: r}
				if l.slotRead() || r.slotRead() {
					ad.pairFused = append(ad.pairFused, fc)
				} else {
					ad.candFused = append(ad.candFused, fc)
				}
				// Equality kernels decide exactly and cannot error: drop the
				// step. Ordering kernels are prefilters; the step stays as
				// the deciding (and error-reporting) filter.
				dropStep = c.op == ast.OpEq || c.op == ast.OpNe
			}
		}
		if dropStep {
			if !copied {
				// Copy-on-write so op.steps stays untouched (the frame
				// executor shares it).
				kept = append(kept, steps[:si]...)
				copied = true
			}
			continue
		}
		if copied {
			kept = append(kept, *s)
		}
	}
	if !copied {
		return steps
	}
	return kept
}

// slotRead reports whether the operand reads an input-side slot column (per
// pair), as opposed to constants and candidate columns (per candidate).
func (o *fusedOperand) slotRead() bool {
	return !o.isConst && o.candCol == nil
}

// filterCand builds the admitted candidate list for one probe value: the
// candidate-static checks, the superseded filter, and the candidate-only
// fused kernels — everything tuple-independent, applied once per distinct
// value instead of once per pair. cand is a reusable scratch buffer.
func (bx *batchExec) filterCand(ad *batchAdmit, cand, base, tail []int32) []int32 {
	superseded := bx.e.superseded
	checkSuper := len(superseded) > 0
	for _, run := range [2][]int32{base, tail} {
		for _, k := range run {
			if !ad.admitCand(k) {
				continue
			}
			if checkSuper && superseded[ad.c.ID(k)] {
				continue
			}
			ok := true
			for ci := range ad.candFused {
				if !ad.candFused[ci].hold(bx.in, nil, 0, k) {
					ok = false
					break
				}
			}
			if ok {
				cand = append(cand, k)
			}
		}
	}
	return cand
}

// crossTuple pairs tuple i with every candidate it admits, appending to the
// (src, ks) pair buffers. The bulk path covers the common merge case where
// every per-pair check was hoisted into the candidate list.
func (bx *batchExec) crossTuple(ad *batchAdmit, st *batchCols, i int, cand []int32, src, ks []int32) ([]int32, []int32) {
	if len(ad.boundChecks) == 0 && len(ad.pairFused) == 0 {
		for range cand {
			src = append(src, int32(i))
		}
		return src, append(ks, cand...)
	}
	for _, k := range cand {
		if !ad.admitTuple(st, i, k) {
			continue
		}
		ok := true
		for ci := range ad.pairFused {
			if !ad.pairFused[ci].hold(bx.in, st, i, k) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		src = append(src, int32(i))
		ks = append(ks, k)
	}
	return src, ks
}

// extend joins every input tuple with every admissible match of the atom at
// order position d, in two phases: collect (src, k) pairs (4-byte appends),
// then gather every output column in one exact-size allocation per column.
// Probe and scan strategies visit tuples in order and candidates per tuple
// in dense (fact-id) order, preserving canonical order; the merge strategy
// regroups tuples by join-key value and marks the output perturbed (the
// leaf re-sort restores canonical order — see the package comment).
func (bx *batchExec) extend(d int, st *batchCols, js *database.ColumnarStats) *batchCols {
	ad := &bx.admits[d]
	var src, ks, cand []int32
	perturbed := st.perturbed
	sortedBy := st.sortedBy

	switch ad.strategy {
	case probeConst:
		js.ProbePasses++
		base, tail := ad.c.Runs(ad.probePos, ad.probeVal)
		if cand = bx.filterCand(ad, cand, base, tail); len(cand) > 0 {
			for i := 0; i < st.n; i++ {
				src, ks = bx.crossTuple(ad, st, i, cand, src, ks)
			}
		}
	case probeBound:
		col := st.slots[ad.probeSlot]
		it := ad.c.Iter(ad.probePos)
		if st.n >= bx.e.tune.mergeThreshold {
			// Leapfrog: sort the tuples by the join key (skipped when a
			// previous merge on the same slot left them sorted), then
			// intersect the distinct ascending keys against the sorted runs
			// with one galloping Seek each, filter the candidate list once,
			// and cross it with the whole tuple group.
			js.TriejoinPasses++
			var order []int32
			if sortedBy != ad.probeSlot {
				order = sortPermByKey(col)
			}
			at := func(t int) int {
				if order == nil {
					return t
				}
				return int(order[t])
			}
			for i := 0; i < st.n; {
				ti := at(i)
				v := col[ti]
				j := i + 1
				for j < st.n && col[at(j)] == v {
					j++
				}
				base, tail := it.Seek(v)
				if len(base)+len(tail) > 0 {
					if cand = bx.filterCand(ad, cand[:0], base, tail); len(cand) > 0 {
						for t := i; t < j; t++ {
							src, ks = bx.crossTuple(ad, st, at(t), cand, src, ks)
						}
					}
				}
				i = j
			}
			perturbed, sortedBy = true, ad.probeSlot
		} else {
			js.ProbePasses++
			probed := false
			var lastVal term.ValueID
			for i := 0; i < st.n; i++ {
				if v := col[i]; !probed || v != lastVal {
					base, tail := it.Seek(v)
					cand = bx.filterCand(ad, cand[:0], base, tail)
					lastVal, probed = v, true
				}
				src, ks = bx.crossTuple(ad, st, i, cand, src, ks)
			}
		}
		js.Seeks += it.Seeks
		js.GallopSteps += it.GallopSteps
	default:
		js.ScanPasses++
		lo, hi := int32(0), int32(ad.c.Extent())
		switch ad.mode {
		case admitOld:
			hi = ad.bound
		case admitNew:
			lo = ad.bound
		}
		superseded := bx.e.superseded
		checkSuper := len(superseded) > 0
		for k := lo; k < hi; k++ {
			if !ad.admitCand(k) {
				continue
			}
			if checkSuper && superseded[ad.c.ID(k)] {
				continue
			}
			ok := true
			for ci := range ad.candFused {
				if !ad.candFused[ci].hold(bx.in, nil, 0, k) {
					ok = false
					break
				}
			}
			if ok {
				cand = append(cand, k)
			}
		}
		if len(cand) > 0 {
			for i := 0; i < st.n; i++ {
				src, ks = bx.crossTuple(ad, st, i, cand, src, ks)
			}
		}
	}

	out := bx.gather(ad, st, src, ks)
	out.perturbed = perturbed && out.n > 0
	out.sortedBy = sortedBy
	return out
}

// gather materializes the output columns of one extension from the pair
// buffers: surviving input columns through the src indirection, the write
// slots and the new premise column from the candidate cursors — the
// columnar counterpart of copying the frame per leaf, but one exact-size
// allocation per column instead of per row.
func (bx *batchExec) gather(ad *batchAdmit, st *batchCols, src, ks []int32) *batchCols {
	n := len(src)
	out := &batchCols{
		n:        n,
		slots:    make([][]term.ValueID, len(st.slots)),
		vals:     make([][]term.Term, len(st.vals)),
		facts:    make([][]database.FactID, len(st.facts)),
		sortedBy: -1,
	}
	for s, col := range st.slots {
		if col == nil {
			continue
		}
		g := make([]term.ValueID, n)
		for j, i := range src {
			g[j] = col[i]
		}
		out.slots[s] = g
	}
	for w, slot := range ad.writeSlots {
		colP := ad.cols[ad.writePoss[w]]
		g := make([]term.ValueID, n)
		for j, k := range ks {
			g[j] = colP[k]
		}
		out.slots[slot] = g
	}
	for v, col := range st.vals {
		if col == nil {
			continue
		}
		g := make([]term.Term, n)
		for j, i := range src {
			g[j] = col[i]
		}
		out.vals[v] = g
	}
	for a, col := range st.facts {
		if col == nil {
			continue
		}
		g := make([]database.FactID, n)
		for j, i := range src {
			g[j] = col[i]
		}
		out.facts[a] = g
	}
	newFacts := make([]database.FactID, n)
	for j, k := range ks {
		newFacts[j] = ad.c.ID(k)
	}
	out.facts[ad.atomIdx] = newFacts
	return out
}

// sortPermByKey returns the permutation that sorts the key column ascending,
// stably (ties keep input order). Small inputs use a comparison sort; large
// ones a two-pass LSD radix over the 32-bit id.
func sortPermByKey(keys []term.ValueID) []int32 {
	n := len(keys)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if n < permRadixMin {
		sort.Slice(perm, func(a, b int) bool {
			ka, kb := keys[perm[a]], keys[perm[b]]
			if ka != kb {
				return ka < kb
			}
			return perm[a] < perm[b]
		})
		return perm
	}
	tmp := make([]int32, n)
	var count [1 << 16]int32
	for shift := 0; shift < 32; shift += 16 {
		for i := range count {
			count[i] = 0
		}
		for _, p := range perm {
			count[uint32(keys[p])>>shift&0xffff]++
		}
		sum := int32(0)
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, p := range perm {
			d := uint32(keys[p]) >> shift & 0xffff
			tmp[count[d]] = p
			count[d]++
		}
		perm, tmp = tmp, perm
	}
	return perm
}

// restoreCanonical re-sorts a perturbed leaf tuple set into the frame
// executor's depth-first order: lexicographic over the per-depth fact-id
// columns. Leaf fact-id tuples are unique (the choice sequence is the
// leaf), so the sort has no ties and the order is fully determined.
func restoreCanonical(st *batchCols, op *orderedPlan) *batchCols {
	if !st.perturbed {
		return st
	}
	if st.n <= 1 {
		st.perturbed = false
		return st
	}
	depthFacts := make([][]database.FactID, len(op.order))
	for d, atomIdx := range op.order {
		depthFacts[d] = st.facts[atomIdx]
	}
	perm := make([]int32, st.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		pa, pb := perm[a], perm[b]
		for _, col := range depthFacts {
			if col[pa] != col[pb] {
				return col[pa] < col[pb]
			}
		}
		return false
	})
	out := &batchCols{
		n:        st.n,
		slots:    make([][]term.ValueID, len(st.slots)),
		vals:     make([][]term.Term, len(st.vals)),
		facts:    make([][]database.FactID, len(st.facts)),
		sortedBy: -1,
	}
	for s, col := range st.slots {
		if col == nil {
			continue
		}
		g := make([]term.ValueID, st.n)
		for j, i := range perm {
			g[j] = col[i]
		}
		out.slots[s] = g
	}
	for v, col := range st.vals {
		if col == nil {
			continue
		}
		g := make([]term.Term, st.n)
		for j, i := range perm {
			g[j] = col[i]
		}
		out.vals[v] = g
	}
	for a, col := range st.facts {
		if col == nil {
			continue
		}
		g := make([]database.FactID, st.n)
		for j, i := range perm {
			g[j] = col[i]
		}
		out.facts[a] = g
	}
	return out
}

// runSteps applies the unfused steps scheduled at depth d column-wise, in
// the same relative order as the frame executor's runSteps; filters compact
// the tuple set in place of dropping one frame at a time.
func (bx *batchExec) runSteps(d int, st *batchCols) (*batchCols, error) {
	steps := bx.steps[d]
	for i := range steps {
		var err error
		switch s := &steps[i]; {
		case s.assign != nil:
			err = bx.assignCol(s.assign, st)
		case s.cond != nil:
			st, err = bx.filterCond(s.cond, st)
		case s.neg != nil:
			st = bx.filterNeg(s.neg, st)
		}
		if err != nil {
			return nil, err
		}
		if st.n == 0 {
			return st, nil
		}
	}
	return st, nil
}

// resolveAt turns an operand into its term for tuple i.
func (bx *batchExec) resolveAt(o planOperand, st *batchCols, i int) term.Term {
	if o.isConst {
		return o.t
	}
	if o.kind == refVal {
		return st.vals[o.idx][i]
	}
	return bx.in.Value(st.slots[o.idx][i])
}

// evalExprAt evaluates a compiled expression for tuple i with the shared
// arithmetic semantics.
func (bx *batchExec) evalExprAt(e *planExpr, st *batchCols, i int) (term.Term, error) {
	if e.leaf {
		return bx.resolveAt(e.operand, st, i), nil
	}
	l, err := bx.evalExprAt(e.l, st, i)
	if err != nil {
		return term.Term{}, err
	}
	r, err := bx.evalExprAt(e.r, st, i)
	if err != nil {
		return term.Term{}, err
	}
	return arithCombine(e.op, l, r, e.src)
}

// assignCol evaluates one assignment over all tuples into a value column.
func (bx *batchExec) assignCol(a *planAssign, st *batchCols) error {
	col := make([]term.Term, st.n)
	for i := 0; i < st.n; i++ {
		v, err := bx.evalExprAt(a.expr, st, i)
		if err != nil {
			return fmt.Errorf("assignment %s: %w", a.src, err)
		}
		col[i] = v
	}
	st.vals[a.target] = col
	return nil
}

// filterCond drops the tuples for which the condition does not hold. Two
// vectorized fast paths cover the hot cases — Eq/Ne over id space (id
// equality is term equality for interned values) and numeric ordering via
// the interner's Numeric cache — with per-tuple fallback to the shared
// condHolds for everything else, so filter decisions and error messages
// match the frame executor exactly.
func (bx *batchExec) filterCond(c *planCond, st *batchCols) (*batchCols, error) {
	in := bx.in
	keep := make([]bool, st.n)
	kept := 0

	if c.l.isConst && c.r.isConst {
		// Constant condition: evaluate once, keep all or none.
		ok, err := condHolds(c.op, c.l.t, c.r.t, c.src)
		if err != nil {
			return nil, err
		}
		if !ok {
			return &batchCols{
				slots:    make([][]term.ValueID, len(st.slots)),
				vals:     make([][]term.Term, len(st.vals)),
				facts:    make([][]database.FactID, len(st.facts)),
				sortedBy: -1,
			}, nil
		}
		return st, nil
	}

	idSide := func(o planOperand) (col []term.ValueID, val term.ValueID, ok bool) {
		if o.isConst {
			if id, found := in.Lookup(o.t); found {
				return nil, id, true
			}
			// Never interned: no stored value is semantically equal, so
			// NoValue (matched by no slot value) encodes it exactly.
			return nil, term.NoValue, true
		}
		if o.kind == refSlot {
			return st.slots[o.idx], 0, true
		}
		return nil, 0, false
	}

	switch c.op {
	case ast.OpEq, ast.OpNe:
		lCol, lVal, lOK := idSide(c.l)
		rCol, rVal, rOK := idSide(c.r)
		if lOK && rOK {
			want := c.op == ast.OpEq
			for i := 0; i < st.n; i++ {
				l, r := lVal, rVal
				if lCol != nil {
					l = lCol[i]
				}
				if rCol != nil {
					r = rCol[i]
				}
				if (l == r) == want {
					keep[i] = true
					kept++
				}
			}
			return compactCols(st, keep, kept), nil
		}
	default:
		// Numeric ordering fast path: slot operands read the interner's
		// float cache, constants pre-convert; any non-numeric tuple falls
		// back to the shared semantics (string ordering, error parity).
		numAt := func(o planOperand, i int) (float64, bool) {
			if o.isConst {
				return o.t.AsFloat()
			}
			if o.kind == refVal {
				return st.vals[o.idx][i].AsFloat()
			}
			return in.Numeric(st.slots[o.idx][i])
		}
		for i := 0; i < st.n; i++ {
			lf, lok := numAt(c.l, i)
			rf, rok := numAt(c.r, i)
			var ok bool
			if lok && rok {
				switch c.op {
				case ast.OpLt:
					ok = lf < rf
				case ast.OpLe:
					ok = lf <= rf
				case ast.OpGt:
					ok = lf > rf
				case ast.OpGe:
					ok = lf >= rf
				}
			} else {
				var err error
				ok, err = condHolds(c.op, bx.resolveAt(c.l, st, i), bx.resolveAt(c.r, st, i), c.src)
				if err != nil {
					return nil, err
				}
			}
			if ok {
				keep[i] = true
				kept++
			}
		}
		return compactCols(st, keep, kept), nil
	}

	// Generic path (computed-value operands under Eq/Ne).
	for i := 0; i < st.n; i++ {
		ok, err := condHolds(c.op, bx.resolveAt(c.l, st, i), bx.resolveAt(c.r, st, i), c.src)
		if err != nil {
			return nil, err
		}
		if ok {
			keep[i] = true
			kept++
		}
	}
	return compactCols(st, keep, kept), nil
}

// filterNeg drops the tuples for which the negated atom matches some
// current (non-superseded) fact — the same stratified-negation rejection as
// executor.negBlocked, probed per tuple through the store's hash indexes
// (negation probes are point lookups; the columnar index buys nothing).
func (bx *batchExec) filterNeg(ng *planNeg, st *batchCols) *batchCols {
	store := bx.e.store
	in := bx.in
	frame := make([]term.ValueID, bx.p.nslots)
	var scratch []database.SlotOp
	keep := make([]bool, st.n)
	kept := 0
	for i := 0; i < st.n; i++ {
		for s, col := range st.slots {
			if col != nil {
				frame[s] = col[i]
			} else {
				frame[s] = term.NoValue
			}
		}
		pat := ng.pat
		if len(ng.valFixes) > 0 {
			scratch = append(scratch[:0], ng.pat.Ops...)
			resolvable := true
			for _, vf := range ng.valFixes {
				id, ok := in.Lookup(st.vals[vf.val][i])
				if !ok {
					// The computed value was never interned, so no stored
					// fact can contain it: the negated atom has no match.
					resolvable = false
					break
				}
				scratch[vf.pos] = database.SlotOp{Kind: database.SlotConst, Val: id}
			}
			if !resolvable {
				keep[i] = true
				kept++
				continue
			}
			pat = database.SlotPattern{Predicate: ng.pat.Predicate, Ops: scratch}
		}
		blocked := false
		for _, id := range store.CandidatesSlots(pat, frame) {
			if bx.e.superseded[id] {
				continue
			}
			if store.BindRowSlots(pat, id, frame) {
				blocked = true
				break
			}
		}
		if !blocked {
			keep[i] = true
			kept++
		}
	}
	return compactCols(st, keep, kept)
}

// compactCols gathers the kept tuples, preserving order (and hence the
// sort/perturbation flags). It returns the input unchanged when nothing was
// dropped.
func compactCols(st *batchCols, keep []bool, kept int) *batchCols {
	if kept == st.n {
		return st
	}
	out := &batchCols{
		n:         kept,
		slots:     make([][]term.ValueID, len(st.slots)),
		vals:      make([][]term.Term, len(st.vals)),
		facts:     make([][]database.FactID, len(st.facts)),
		perturbed: st.perturbed && kept > 0,
		sortedBy:  st.sortedBy,
	}
	for s, col := range st.slots {
		if col == nil {
			continue
		}
		g := make([]term.ValueID, 0, kept)
		for i, k := range keep {
			if k {
				g = append(g, col[i])
			}
		}
		out.slots[s] = g
	}
	for v, col := range st.vals {
		if col == nil {
			continue
		}
		g := make([]term.Term, 0, kept)
		for i, k := range keep {
			if k {
				g = append(g, col[i])
			}
		}
		out.vals[v] = g
	}
	for a, col := range st.facts {
		if col == nil {
			continue
		}
		g := make([]database.FactID, 0, kept)
		for i, k := range keep {
			if k {
				g = append(g, col[i])
			}
		}
		out.facts[a] = g
	}
	return out
}

// appendBindingsCols converts canonical leaf columns to bindings. Frames and
// value tuples are carved out of two arena allocations (they are transient:
// read once at the emission boundary); the premise fact tuples are allocated
// per binding because Derivation.Premises and Contribution.Premises retain
// them for the lifetime of the result.
func appendBindingsCols(p *plan, st *batchCols, out []binding) []binding {
	if st.n == 0 {
		return out
	}
	nb := len(st.facts)
	frames := make([]term.ValueID, st.n*p.nslots)
	var vals []term.Term
	if p.nvals > 0 {
		vals = make([]term.Term, st.n*p.nvals)
	}
	for i := 0; i < st.n; i++ {
		b := binding{
			frame: frames[i*p.nslots : (i+1)*p.nslots : (i+1)*p.nslots],
			facts: make([]database.FactID, nb),
		}
		for s := 0; s < p.nslots; s++ {
			b.frame[s] = st.slots[s][i]
		}
		for a := 0; a < nb; a++ {
			b.facts[a] = st.facts[a][i]
		}
		if p.nvals > 0 {
			b.vals = vals[i*p.nvals : (i+1)*p.nvals : (i+1)*p.nvals]
			for v := 0; v < p.nvals; v++ {
				b.vals[v] = st.vals[v][i]
			}
		}
		out = append(out, b)
	}
	return out
}

// run extends a single virtual empty tuple through every depth — the
// extension, then the unfused steps scheduled at that depth, with a
// cancellation checkpoint per depth — and returns the leaf columns in
// canonical order.
func (bx *batchExec) run(js *database.ColumnarStats) (*batchCols, error) {
	st := bx.extend(0, newBatchCols(1, bx.p), js)
	for d := 0; ; d++ {
		if st.n == 0 {
			return st, nil
		}
		if err := bx.e.checkCtx(); err != nil {
			return nil, err
		}
		var err error
		st, err = bx.runSteps(d, st)
		if err != nil {
			return nil, err
		}
		if st.n == 0 {
			return st, nil
		}
		if d+1 == len(bx.op.atoms) {
			return restoreCanonical(st, bx.op), nil
		}
		st = bx.extend(d+1, st, js)
	}
}

// pivotNewCount is the semi-naive delta size of one pivot: the number of
// live facts of the pivot atom's predicate at or beyond the boundary. It
// depends only on store state.
func (e *engine) pivotNewCount(op *orderedPlan, boundary database.FactID) int {
	c := e.store.EnsureColumnarRuns(op.atoms[0].Predicate, nil)
	return c.Extent() - int(c.DenseBoundary(boundary))
}

// joinBatchUnits evaluates a full (semi=false) or semi-naive join on the
// batch executor — one batch pass per pivot decomposition — and returns its
// units in canonical concatenation order, exactly the frame executor's.
// wantBindings converts every unit to bindings (aggregation and constraint
// callers); the plain-rule emission path takes the columns raw.
func (e *engine) joinBatchUnits(p *plan, semi bool, boundary database.FactID, wantBindings bool) ([]joinUnit, error) {
	e.ensurePlanColumnar(p)
	var units []joinUnit
	var js database.ColumnarStats
	defer func() { e.store.AddJoinStats(js) }()
	npiv := 1
	if semi {
		npiv = len(p.orders)
	}
	for pivot := 0; pivot < npiv; pivot++ {
		if err := e.checkCtx(); err != nil {
			return nil, err
		}
		op := p.orders[pivot]
		pv := -1
		if semi {
			pv = pivot
			switch nc := e.pivotNewCount(op, boundary); {
			case nc == 0:
				continue // pivot demands a new fact; there is none
			case nc < e.tune.frameFallbackMin:
				js.FrameFallbacks++
				x := e.newExecutor(p, op, pivotFilter(pivot, boundary))
				if err := x.extend(0); err != nil {
					return nil, err
				}
				if len(x.out) > 0 {
					units = append(units, joinUnit{binds: x.out})
				}
				continue
			}
		}
		bx := e.newBatchExec(p, op, pv, boundary)
		st, err := bx.run(&js)
		if err != nil {
			return nil, err
		}
		if st.n == 0 {
			continue
		}
		if wantBindings {
			units = append(units, joinUnit{binds: appendBindingsCols(p, st, nil)})
		} else {
			units = append(units, joinUnit{cols: st})
		}
	}
	return units, nil
}
