package database

// Columnar sorted indexes: the storage half of the batch-at-a-time join
// executor (internal/chase/batch.go).
//
// For every predicate the store can materialize a column-major mirror of the
// predicate's live extent: ids is the live fact-id list in ascending order
// (the "dense" numbering 0..n-1), cols[pos][k] is the interned value at
// argument position pos of the k-th live fact, and per position a
// permutation of the dense indexes sorted by (value, dense index). A probe
// for "all facts with value v at position p" is a binary search yielding a
// run of dense indexes, and checking the remaining positions of each
// candidate reads other dense columns — no per-row slice header is touched.
// Because ids is ascending, dense order is fact-id order, which is exactly
// the candidate order the hash-index buckets of Match/CandidatesSlots
// enumerate; that is what keeps the batch executor byte-identical to the
// tuple-at-a-time one.
//
// # Maintenance
//
// Indexes are built lazily and maintained with a two-run scheme (a small
// LSM): the base runs cover the dense prefix [0, baseN) incorporated at the
// last full sort, the tail runs cover [baseN, n) and are re-sorted per
// refresh, and the tail is merged into the base once it outgrows a quarter
// of it, keeping total merge work O(n log n) over the life of the index. A
// probe consults both runs; every base candidate precedes every tail
// candidate in dense order, so the two runs concatenate without merging.
//
// Sorted runs are built per position, on demand: the batch executor only
// ever probes positions its compiled plans bind to a constant or an
// already-bound slot, so EnsureColumnarRuns sorts exactly those (the write
// positions of a million-row predicate never pay a sort). EnsureColumnar
// without a position list is the build-everything form used by tests and
// ad-hoc callers. Large runs sort by a two-pass LSD radix on the 32-bit
// value id rather than a comparator sort — the input dense order makes the
// stable radix produce the (value, dense) order directly — which keeps the
// index build a small fraction of a million-fact join.
//
// Retraction is the rare, expensive path: tombstoning any fact of a
// predicate marks its index stale and the next refresh rebuilds it from the
// live extent. The incremental maintainer retracts in batches between
// saturation passes, so one rebuild amortizes a whole over-delete closure.
//
// # Coherence contract
//
// Refresh mutates the store (it is a writer in the Store concurrency
// contract). The chase engine refreshes every body predicate of a rule at
// the start of its batch join, so the join itself only reads the index.
// All other Columnar methods only read and are safe alongside any number
// of concurrent readers.
//
// Maintenance work is counted per store (Store.ColumnarStats) and aggregated
// process-wide (GlobalColumnarStats) so serving-tier regressions — e.g. a
// workload that retracts so often every probe rebuilds — are observable on
// the /stats endpoint.

import (
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/term"
)

// ColumnarStats counts index-maintenance work — full rebuilds (first build or
// post-retraction), tail→base merges, refreshes that only re-sorted the
// tail, and the total rows appended into tails — plus the join-strategy
// counters the chase engine reports back: how many rule evaluations it gave
// to the tuple-at-a-time frame executor and how many to the batch executor,
// and within the latter how many extension passes ran as a sorted merge
// (leapfrog triejoin), as per-tuple run probes, as dense-extent scans, or
// fell back to the frame executor for one pivot, and the iterator work
// (seeks, galloping steps) the merge passes did.
type ColumnarStats struct {
	Rebuilds      uint64 `json:"rebuilds"`
	Merges        uint64 `json:"merges"`
	TailRefreshes uint64 `json:"tailRefreshes"`
	AppendedRows  uint64 `json:"appendedRows"`
	// Join-strategy selection (reported by internal/chase).
	FrameJoins     uint64 `json:"frameJoins"`
	BatchJoins     uint64 `json:"batchJoins"`
	TriejoinPasses uint64 `json:"triejoinPasses"`
	ProbePasses    uint64 `json:"probePasses"`
	ScanPasses     uint64 `json:"scanPasses"`
	FrameFallbacks uint64 `json:"frameFallbacks"`
	Seeks          uint64 `json:"seeks"`
	GallopSteps    uint64 `json:"gallopSteps"`
}

// globalColumnar aggregates maintenance counters across every store in the
// process for the serving tier's /stats endpoint (sessions own independent
// stores; the per-store counters die with them).
var globalColumnar struct {
	rebuilds, merges, tailRefreshes, appended       atomic.Uint64
	frameJoins, batchJoins                          atomic.Uint64
	triejoin, probe, scan, fallback, seeks, gallops atomic.Uint64
}

// GlobalColumnarStats snapshots the process-wide columnar maintenance
// counters.
func GlobalColumnarStats() ColumnarStats {
	return ColumnarStats{
		Rebuilds:       globalColumnar.rebuilds.Load(),
		Merges:         globalColumnar.merges.Load(),
		TailRefreshes:  globalColumnar.tailRefreshes.Load(),
		AppendedRows:   globalColumnar.appended.Load(),
		FrameJoins:     globalColumnar.frameJoins.Load(),
		BatchJoins:     globalColumnar.batchJoins.Load(),
		TriejoinPasses: globalColumnar.triejoin.Load(),
		ProbePasses:    globalColumnar.probe.Load(),
		ScanPasses:     globalColumnar.scan.Load(),
		FrameFallbacks: globalColumnar.fallback.Load(),
		Seeks:          globalColumnar.seeks.Load(),
		GallopSteps:    globalColumnar.gallops.Load(),
	}
}

// ColumnarStats snapshots this store's columnar maintenance counters.
func (s *Store) ColumnarStats() ColumnarStats { return s.colStats }

// AddJoinStats folds a batch of join-strategy counters into the store's (and
// the process-wide) columnar stats. The chase engine counts its executor
// choices in plain fields and flushes them when it snapshots a fixpoint; the
// batch executor accumulates its pass counters locally during a join and
// flushes them here once per join.
func (s *Store) AddJoinStats(d ColumnarStats) {
	for _, c := range [...]struct {
		local  *uint64
		global *atomic.Uint64
		n      uint64
	}{
		{&s.colStats.FrameJoins, &globalColumnar.frameJoins, d.FrameJoins},
		{&s.colStats.BatchJoins, &globalColumnar.batchJoins, d.BatchJoins},
		{&s.colStats.TriejoinPasses, &globalColumnar.triejoin, d.TriejoinPasses},
		{&s.colStats.ProbePasses, &globalColumnar.probe, d.ProbePasses},
		{&s.colStats.ScanPasses, &globalColumnar.scan, d.ScanPasses},
		{&s.colStats.FrameFallbacks, &globalColumnar.fallback, d.FrameFallbacks},
		{&s.colStats.Seeks, &globalColumnar.seeks, d.Seeks},
		{&s.colStats.GallopSteps, &globalColumnar.gallops, d.GallopSteps},
	} {
		if c.n != 0 { // most calls carry one or two counters
			*c.local += c.n
			c.global.Add(c.n)
		}
	}
}

// colRun is one sorted run of a positional permutation: dense indexes sorted
// by (value at the position, dense index), with the values alongside so the
// binary search walks one contiguous array.
type colRun struct {
	ks   []int32
	vals []term.ValueID
}

// search returns the subrange of the run holding value v; dense indexes
// within it are ascending (the sort tie-breaks on the index).
func (r *colRun) search(v term.ValueID) (lo, hi int) {
	lo = sort.Search(len(r.vals), func(i int) bool { return r.vals[i] >= v })
	hi = lo + sort.Search(len(r.vals)-lo, func(i int) bool { return r.vals[lo+i] > v })
	return lo, hi
}

// Columnar is the sorted columnar index of one predicate. It is owned by the
// store; callers obtain it through EnsureColumnar and must treat it as
// read-only.
type Columnar struct {
	pred string
	// ids maps dense index → fact id; ascending, so dense order is id
	// order. cols[pos][k] is the value of fact ids[k] at position pos
	// (term.NoValue when the fact's arity is ≤ pos); lens[k] is its arity.
	ids  []FactID
	cols [][]term.ValueID
	lens []int32
	// base and tail are the per-position sorted runs: base permutes the
	// dense prefix [0, baseN), tail the suffix [baseN, len(ids)).
	base  []colRun
	tail  []colRun
	baseN int
	// distinct[pos] counts distinct values in the base run — the
	// selectivity estimate behind AvgRun.
	distinct []int
	// want marks positions whose sorted runs callers asked for; built marks
	// those actually constructed (cleared by a rebuild). wantAll is the
	// EnsureColumnar build-everything form.
	want    []bool
	built   []bool
	wantAll bool
	// incorporated is the store frontier the index covers; stale marks a
	// retraction that invalidates everything until the next rebuild.
	incorporated FactID
	stale        bool
}

// Pred returns the indexed predicate.
func (c *Columnar) Pred() string { return c.pred }

// Extent returns the number of live facts the index covers.
func (c *Columnar) Extent() int { return len(c.ids) }

// ID returns the fact id of dense index k.
func (c *Columnar) ID(k int32) FactID { return c.ids[k] }

// RowLen returns the arity of the fact at dense index k.
func (c *Columnar) RowLen(k int32) int { return int(c.lens[k]) }

// Col returns the dense value column of position pos, or nil when no
// incorporated fact has that position. The column holds term.NoValue for
// facts whose arity is ≤ pos.
func (c *Columnar) Col(pos int) []term.ValueID {
	if pos >= len(c.cols) {
		return nil
	}
	return c.cols[pos]
}

// Runs returns the candidate dense indexes for value v at position pos as
// two ascending runs; every base index precedes every tail index, so
// scanning base then tail visits candidates in dense (= fact id) order.
// The returned slices alias the index; callers must not mutate them. The
// position's runs must have been ensured (EnsureColumnar, or listed in
// EnsureColumnarRuns) — probing an unbuilt position panics.
func (c *Columnar) Runs(pos int, v term.ValueID) (base, tail []int32) {
	if pos < len(c.base) {
		c.checkBuilt(pos)
		lo, hi := c.base[pos].search(v)
		base = c.base[pos].ks[lo:hi]
	}
	if pos < len(c.tail) {
		lo, hi := c.tail[pos].search(v)
		tail = c.tail[pos].ks[lo:hi]
	}
	return base, tail
}

// checkBuilt panics when a probe hits a position whose sorted runs were
// never requested — a caller bug that would otherwise silently return no
// candidates.
func (c *Columnar) checkBuilt(pos int) {
	if !c.built[pos] {
		panic("database: columnar run for " + c.pred + " position not ensured")
	}
}

// RunIter is a seekable cursor over one position's sorted runs (base and LSM
// tail together). Seek positions it at a value by galloping — exponential
// probing from the current cursor, then a binary search inside the located
// window — so a caller walking an ascending key sequence (the leapfrog
// triejoin in internal/chase/batch.go) pays O(log gap) per key instead of
// O(log n), and the total over a full merge pass is linear in the run
// length. Seeking backwards restarts with a full binary search from the run
// start, so the iterator is also correct (just not amortized) for unsorted
// key sequences.
//
// The iterator only reads the index. Seeks and GallopSteps account the
// work for the join-path counters.
type RunIter struct {
	base, tail *colRun
	bi, ti     int // cursor: first entry not yet known to be < the last sought value
	// Seeks counts Seek calls; GallopSteps counts exponential-probe and
	// binary-search comparisons, the "galloping steps" of the stats.
	Seeks       uint64
	GallopSteps uint64
}

// Iter returns a seekable iterator over the sorted runs of pos. Like Runs,
// the position must have been ensured; iterating an unbuilt position panics.
func (c *Columnar) Iter(pos int) RunIter {
	var it RunIter
	if pos < len(c.base) {
		c.checkBuilt(pos)
		it.base = &c.base[pos]
		it.tail = &c.tail[pos]
	} else {
		it.base = &colRun{}
		it.tail = &colRun{}
	}
	return it
}

// Seek positions the iterator at value v and returns its candidate dense
// indexes as two ascending runs (base then tail, empty when v is absent),
// exactly like Runs. After Seek the cursors rest at the start of v's window,
// so a following Seek to a larger value gallops forward from there.
func (it *RunIter) Seek(v term.ValueID) (base, tail []int32) {
	it.Seeks++
	blo, bhi := it.gallop(it.base, it.bi, v)
	it.bi = blo
	tlo, thi := it.gallop(it.tail, it.ti, v)
	it.ti = tlo
	return it.base.ks[blo:bhi], it.tail.ks[tlo:thi]
}

// gallop locates [lo, hi) of value v in one run, starting from cursor cur.
// A backward seek (v below the value at cur) restarts from the run start.
func (it *RunIter) gallop(r *colRun, cur int, v term.ValueID) (lo, hi int) {
	n := len(r.vals)
	if cur > n {
		cur = n
	}
	if cur > 0 && r.vals[cur-1] >= v {
		// Backward (or repeated) seek: entries before cur may still hold v,
		// so the incremental window is wrong. Restart from 0.
		cur = 0
	}
	// Exponential probe for the first entry >= v, starting at cur.
	step := 1
	probe := cur
	for probe < n && r.vals[probe] < v {
		it.GallopSteps++
		cur = probe + 1
		probe = cur + step
		step *= 2
	}
	if probe > n {
		probe = n
	}
	// Binary search for lo within (cur-1, probe].
	for cur < probe {
		it.GallopSteps++
		mid := int(uint(cur+probe) >> 1)
		if r.vals[mid] < v {
			cur = mid + 1
		} else {
			probe = mid
		}
	}
	lo = cur
	// Gallop again for the end of v's window (values repeat, so hi needs its
	// own search rather than a linear scan).
	step = 1
	end := lo
	probe = lo
	for probe < n && r.vals[probe] <= v {
		it.GallopSteps++
		end = probe + 1
		probe = end + step
		step *= 2
	}
	if probe > n {
		probe = n
	}
	for end < probe {
		it.GallopSteps++
		mid := int(uint(end+probe) >> 1)
		if r.vals[mid] <= v {
			end = mid + 1
		} else {
			probe = mid
		}
	}
	return lo, end
}

// RunLen returns the number of candidates for value v at position pos
// without materializing them (probe-position selection for constants).
func (c *Columnar) RunLen(pos int, v term.ValueID) int {
	b, t := c.Runs(pos, v)
	return len(b) + len(t)
}

// AvgRun estimates the expected candidates per probe of position pos: the
// extent divided by the distinct values seen at that position. A position
// with no data estimates to the full extent plus one (probing it cannot
// help).
func (c *Columnar) AvgRun(pos int) int {
	if pos >= len(c.distinct) {
		return len(c.ids) + 1
	}
	c.checkBuilt(pos)
	if c.distinct[pos] == 0 {
		return len(c.ids) + 1
	}
	return len(c.ids) / c.distinct[pos]
}

// DenseBoundary translates a fact-id boundary into dense space: the first
// dense index whose fact id is ≥ boundary. Semi-naive pivot filters become
// a single comparison against it.
func (c *Columnar) DenseBoundary(boundary FactID) int32 {
	return int32(sort.Search(len(c.ids), func(k int) bool { return c.ids[k] >= boundary }))
}

// EnsureColumnar returns the predicate's columnar index refreshed to cover
// every live fact, with sorted runs for every position: the first call
// builds it, later calls fold in appended facts (tail maintenance) or
// rebuild after a retraction. A predicate with no live facts yields an
// empty (non-nil) index.
func (s *Store) EnsureColumnar(pred string) *Columnar {
	c := s.ensureColumnarData(pred)
	c.wantAll = true
	s.buildWantedRuns(c)
	return c
}

// EnsureColumnarRuns is EnsureColumnar restricted to the given probe
// positions: the dense columns always cover every position (candidate
// checks read them), but only the listed positions get sorted runs. The
// chase engine derives the list from its compiled plans — a position is
// only ever probed when a plan binds it to a constant or an already-bound
// slot — so write-only positions of a large predicate never pay a sort.
// Requests accumulate across calls.
func (s *Store) EnsureColumnarRuns(pred string, poss []int) *Columnar {
	c := s.ensureColumnarData(pred)
	for _, pos := range poss {
		if pos < len(c.want) {
			c.want[pos] = true
		}
	}
	s.buildWantedRuns(c)
	return c
}

// ensureColumnarData refreshes the dense half of the index (ids, columns,
// arity, and tail maintenance of already-built runs) up to the store
// frontier.
func (s *Store) ensureColumnarData(pred string) *Columnar {
	c := s.colIdx[pred]
	if c == nil {
		c = &Columnar{pred: pred}
		if s.colIdx == nil {
			s.colIdx = map[string]*Columnar{}
		}
		s.colIdx[pred] = c
	}
	if c.stale || c.incorporated < s.Frontier() {
		if !s.columnarPending(c) {
			// The frontier moved but none of the new facts belong to this
			// predicate; advance the watermark without touching the runs.
			c.incorporated = s.Frontier()
			return c
		}
		s.refreshColumnar(c)
	}
	return c
}

// buildWantedRuns constructs the sorted runs of every wanted-but-unbuilt
// position.
func (s *Store) buildWantedRuns(c *Columnar) {
	for pos := range c.built {
		if c.built[pos] || !(c.wantAll || c.want[pos]) {
			continue
		}
		s.buildRun(c, pos)
	}
}

// buildRun sorts one position's base and tail runs from the dense columns
// and refreshes its selectivity estimate.
func (s *Store) buildRun(c *Columnar, pos int) {
	base, tail := &c.base[pos], &c.tail[pos]
	*base = colRun{
		ks:   make([]int32, 0, c.baseN),
		vals: make([]term.ValueID, 0, c.baseN),
	}
	*tail = colRun{
		ks:   make([]int32, 0, len(c.ids)-c.baseN),
		vals: make([]term.ValueID, 0, len(c.ids)-c.baseN),
	}
	for k := int32(0); k < int32(len(c.ids)); k++ {
		run := base
		if int(k) >= c.baseN {
			run = tail
		}
		if v := c.cols[pos][k]; v != term.NoValue {
			run.ks = append(run.ks, k)
			run.vals = append(run.vals, v)
		}
	}
	sortRun(base)
	sortRun(tail)
	c.distinct[pos] = countDistinct(base.vals)
	c.built[pos] = true
}

// columnarPending reports whether the index has real work to do: it is
// stale, or some not-yet-incorporated live fact belongs to its predicate.
func (s *Store) columnarPending(c *Columnar) bool {
	if c.stale {
		return true
	}
	bucket := s.byPred[c.pred]
	return len(bucket) > 0 && bucket[len(bucket)-1] >= c.incorporated
}

// invalidateColumnar marks a predicate's index stale after a retraction.
func (s *Store) invalidateColumnar(pred string) {
	if c, ok := s.colIdx[pred]; ok {
		c.stale = true
	}
}

// refreshColumnar brings one index up to the store frontier.
func (s *Store) refreshColumnar(c *Columnar) {
	if c.stale {
		s.rebuildColumnar(c)
		return
	}
	bucket := s.byPred[c.pred]
	// Live ids are ascending, so the pending suffix starts at the first id
	// at or beyond the watermark.
	start := sort.Search(len(bucket), func(i int) bool { return bucket[i] >= c.incorporated })
	fresh := bucket[start:]
	c.incorporated = s.Frontier()
	if len(fresh) == 0 {
		return
	}
	s.colStats.AppendedRows += uint64(len(fresh))
	globalColumnar.appended.Add(uint64(len(fresh)))
	maxAr := len(c.cols)
	for _, id := range fresh {
		if ar := len(s.rows[id]); ar > maxAr {
			maxAr = ar
		}
	}
	c.growArity(maxAr)
	firstFresh := int32(len(c.ids))
	// Extend ids, lens and every column once, then fill by index — growing
	// a million-row column through per-fact appends would reallocate and
	// memmove repeatedly.
	n := len(c.ids) + len(fresh)
	c.ids = append(c.ids, fresh...)
	c.lens = slices.Grow(c.lens, len(fresh))[:n]
	for pos := range c.cols {
		c.cols[pos] = slices.Grow(c.cols[pos], len(fresh))[:n]
	}
	for j, id := range fresh {
		row := s.rows[id]
		k := int(firstFresh) + j
		c.lens[k] = int32(len(row))
		for pos := range c.cols {
			v := term.NoValue
			if pos < len(row) {
				v = row[pos]
			}
			c.cols[pos][k] = v
		}
	}
	// Fold the fresh dense suffix into the built positions' tail runs and
	// re-sort each; the tail is bounded by the merge policy below, so the
	// re-sort is cheap. Unbuilt positions stay data-only until wanted.
	for pos := range c.tail {
		if !c.built[pos] {
			continue
		}
		run := &c.tail[pos]
		appended := false
		for k := firstFresh; k < int32(len(c.ids)); k++ {
			if v := c.cols[pos][k]; v != term.NoValue {
				run.ks = append(run.ks, k)
				run.vals = append(run.vals, v)
				appended = true
			}
		}
		if appended {
			sortRun(run)
		}
	}
	s.colStats.TailRefreshes++
	globalColumnar.tailRefreshes.Add(1)
	if tailLen := len(c.ids) - c.baseN; tailLen > 64 && tailLen*4 > c.baseN {
		s.mergeColumnarTail(c)
	}
}

// rebuildColumnar re-sorts the full live extent (first build, or after a
// retraction invalidated the runs).
func (s *Store) rebuildColumnar(c *Columnar) {
	bucket := s.byPred[c.pred]
	maxAr := 0
	for _, id := range bucket {
		if ar := len(s.rows[id]); ar > maxAr {
			maxAr = ar
		}
	}
	n := len(bucket)
	c.ids = make([]FactID, n)
	copy(c.ids, bucket)
	c.lens = make([]int32, n)
	c.cols = make([][]term.ValueID, maxAr)
	for pos := range c.cols {
		c.cols[pos] = make([]term.ValueID, n)
	}
	for k, id := range bucket {
		row := s.rows[id]
		c.lens[k] = int32(len(row))
		for pos := range c.cols {
			v := term.NoValue
			if pos < len(row) {
				v = row[pos]
			}
			c.cols[pos][k] = v
		}
	}
	c.base = make([]colRun, maxAr)
	c.tail = make([]colRun, maxAr)
	c.distinct = make([]int, maxAr)
	c.built = make([]bool, maxAr)
	if len(c.want) < maxAr {
		want := make([]bool, maxAr)
		copy(want, c.want)
		c.want = want
	}
	c.baseN = n
	c.incorporated = s.Frontier()
	c.stale = false
	// Runs are not rebuilt here: buildWantedRuns re-sorts exactly the
	// positions callers have asked for.
	s.colStats.Rebuilds++
	globalColumnar.rebuilds.Add(1)
}

// mergeColumnarTail merges the tail runs into the base runs (two sorted
// sequences per position) and refreshes the selectivity estimates.
func (s *Store) mergeColumnarTail(c *Columnar) {
	for pos := range c.base {
		base, tail := &c.base[pos], &c.tail[pos]
		if len(tail.ks) == 0 {
			continue
		}
		merged := colRun{
			ks:   make([]int32, 0, len(base.ks)+len(tail.ks)),
			vals: make([]term.ValueID, 0, len(base.vals)+len(tail.vals)),
		}
		i, j := 0, 0
		for i < len(base.ks) && j < len(tail.ks) {
			// Base dense indexes all precede tail ones, so the index
			// tie-break always favors base on equal values.
			if base.vals[i] <= tail.vals[j] {
				merged.ks = append(merged.ks, base.ks[i])
				merged.vals = append(merged.vals, base.vals[i])
				i++
			} else {
				merged.ks = append(merged.ks, tail.ks[j])
				merged.vals = append(merged.vals, tail.vals[j])
				j++
			}
		}
		merged.ks = append(merged.ks, base.ks[i:]...)
		merged.vals = append(merged.vals, base.vals[i:]...)
		merged.ks = append(merged.ks, tail.ks[j:]...)
		merged.vals = append(merged.vals, tail.vals[j:]...)
		c.base[pos] = merged
		c.tail[pos] = colRun{}
		c.distinct[pos] = countDistinct(merged.vals)
	}
	c.baseN = len(c.ids)
	s.colStats.Merges++
	globalColumnar.merges.Add(1)
}

// growArity widens the column matrix and runs to a larger arity, padding the
// new columns with NoValue for the already-incorporated facts.
func (c *Columnar) growArity(arity int) {
	for len(c.cols) < arity {
		col := make([]term.ValueID, len(c.ids))
		for k := range col {
			col[k] = term.NoValue
		}
		c.cols = append(c.cols, col)
		c.base = append(c.base, colRun{})
		c.tail = append(c.tail, colRun{})
		c.distinct = append(c.distinct, 0)
		c.want = append(c.want, false)
		c.built = append(c.built, false)
	}
}

// sortRun sorts one run by (value, dense index). Every caller hands it
// input whose dense indexes ascend within equal values (fresh rows append
// in dense order, and a re-sorted tail keeps old-before-fresh with fresh
// indexes strictly larger), so a stable sort by value alone yields the
// (value, dense) order; large runs exploit that with a stable LSD radix
// sort on the 32-bit value id, small ones fall back to a comparator sort.
func sortRun(r *colRun) {
	if sort.SliceIsSorted(r.ks, func(i, j int) bool {
		return r.vals[i] < r.vals[j] || (r.vals[i] == r.vals[j] && r.ks[i] < r.ks[j])
	}) {
		return
	}
	if len(r.ks) >= 2048 {
		radixSortRun(r)
		return
	}
	perm := make([]int, len(r.ks))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		i, j := perm[a], perm[b]
		return r.vals[i] < r.vals[j] || (r.vals[i] == r.vals[j] && r.ks[i] < r.ks[j])
	})
	ks := make([]int32, len(r.ks))
	vals := make([]term.ValueID, len(r.vals))
	for k, p := range perm {
		ks[k] = r.ks[p]
		vals[k] = r.vals[p]
	}
	r.ks, r.vals = ks, vals
}

// radixSortRun is a two-pass LSD counting sort on 16-bit digits of the
// value id (ids are interner indexes, always ≥ 0, so the uint32 cast is
// order-preserving). Each pass is stable, which both preserves the dense
// tie-break (see sortRun) and makes the second pass correct.
func radixSortRun(r *colRun) {
	n := len(r.ks)
	tmpKs := make([]int32, n)
	tmpVals := make([]term.ValueID, n)
	const digits = 1 << 16
	count := make([]int32, digits)
	for _, v := range r.vals {
		count[uint32(v)&0xffff]++
	}
	next := int32(0)
	for d := range count {
		c := count[d]
		count[d] = next
		next += c
	}
	for i := 0; i < n; i++ {
		d := uint32(r.vals[i]) & 0xffff
		p := count[d]
		count[d]++
		tmpVals[p], tmpKs[p] = r.vals[i], r.ks[i]
	}
	clear(count)
	for _, v := range tmpVals {
		count[uint32(v)>>16]++
	}
	next = 0
	for d := range count {
		c := count[d]
		count[d] = next
		next += c
	}
	for i := 0; i < n; i++ {
		d := uint32(tmpVals[i]) >> 16
		p := count[d]
		count[d]++
		r.vals[p], r.ks[p] = tmpVals[i], tmpKs[i]
	}
}

func countDistinct(vals []term.ValueID) int {
	n := 0
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			n++
		}
	}
	return n
}
