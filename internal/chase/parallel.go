package chase

// Parallel join evaluation (Options.Workers > 1).
//
// The sequential engine splits every rule evaluation into two phases: a
// join phase that enumerates body homomorphisms (pure reads of the fact
// store and the superseded set) and an emission phase that appends derived
// facts and provenance (the only writes). Parallel mode keeps that split
// and parallelizes only the read-only phase: the seed matches of each
// join's first atom are partitioned into chunks, a worker pool extends and
// filters each chunk independently against the frozen store snapshot, and
// the single-threaded merge concatenates the per-chunk candidate buffers in
// canonical (pivot index, chunk index) order before the unchanged emission
// loop applies them.
//
// Determinism argument. The sequential join is a depth-first walk whose
// output is ordered lexicographically by the per-atom match choices;
// extending a contiguous slice of seeds yields exactly the lexicographic
// block of bindings whose first choice lies in that slice. Concatenating
// the blocks in seed order therefore reproduces the sequential binding
// list element for element. Since emission order is a function of the
// binding list alone, fact ids, chase steps, provenance edges, and
// aggregation contributions are byte-for-byte identical to Workers: 0 at
// any worker count. (On a program that errors mid-join — a failing
// assignment, say — both modes fail deterministically, though the chunk
// that surfaces the error first may differ from the sequential scan, so
// the reported witness binding can differ.)
//
// The alternative design — evaluating distinct rules concurrently against
// a round-start snapshot — was rejected: the sequential engine lets a rule
// observe facts emitted earlier in the same round, so a snapshot-per-round
// scheme shifts derivations across rounds and can change which rule is a
// fact's canonical (first) deriver, silently changing explanations.
// Within-rule parallelism keeps the canonical provenance stable while
// still covering the hot path, because virtually all chase time is spent
// inside body joins.

import (
	"sync"
	"sync/atomic"

	"repro/internal/database"
	"repro/internal/term"
)

// chunksPerWorker oversplits each seed list so the pool can balance chunks
// of uneven cost (a seed whose extension fans out dominates its chunk).
const chunksPerWorker = 4

// planSeed is one admissible match of the first atom of a compiled order:
// the binding frame right after that atom bound, plus the matched fact id.
type planSeed struct {
	frame []term.ValueID
	fact  database.FactID
}

// planTask is one unit of parallel join work: a contiguous slice of seeds
// to be driven through the rest of the ordered plan by a per-task executor.
// Tasks are created in canonical order; out buffers are merged by task
// index.
type planTask struct {
	op    *orderedPlan
	allow atomFilter
	seeds []planSeed
	out   []binding
}

// planSeeds matches the first atom of the order sequentially (one indexed
// scan) to fix the seed order. The steps scheduled at depth 0 are
// deliberately deferred to the workers: they are per-binding filters, so
// running them inside the task keeps the surviving set identical while the
// seed scan stays a pure match loop.
func (e *engine) planSeeds(p *plan, op *orderedPlan, allow atomFilter) []planSeed {
	pa := &op.atoms[0]
	atomIdx := op.order[0]
	frame := make([]term.ValueID, p.nslots)
	for i := range frame {
		frame[i] = term.NoValue
	}
	var seeds []planSeed
	for _, id := range e.store.CandidatesSlots(*pa, frame) {
		if !e.store.BindRowSlots(*pa, id, frame) {
			continue
		}
		if e.superseded[id] {
			continue
		}
		if allow != nil && !allow(atomIdx, id) {
			continue
		}
		seeds = append(seeds, planSeed{frame: append([]term.ValueID(nil), frame...), fact: id})
	}
	return seeds
}

// appendPlanChunked splits seeds into up to workers*chunksPerWorker
// contiguous chunks and appends one task per chunk, preserving seed order
// across the chunk sequence.
func appendPlanChunked(tasks []*planTask, seeds []planSeed, op *orderedPlan, allow atomFilter, workers int) []*planTask {
	if len(seeds) == 0 {
		return tasks
	}
	chunks := workers * chunksPerWorker
	if chunks > len(seeds) {
		chunks = len(seeds)
	}
	for c := 0; c < chunks; c++ {
		lo := c * len(seeds) / chunks
		hi := (c + 1) * len(seeds) / chunks
		tasks = append(tasks, &planTask{op: op, allow: allow, seeds: seeds[lo:hi]})
	}
	return tasks
}

// joinFrameParallel is joinFrame with the depth-first extension fanned out
// over the worker pool: the first atom of every pivot order is matched
// sequentially (one indexed scan) to fix the seed order, the seeds are
// chunked, and all pivots' chunks run as one task pool. Merging by (pivot,
// chunk) index reproduces the sequential pivot-by-pivot concatenation
// exactly.
func (e *engine) joinFrameParallel(p *plan, semi bool, boundary database.FactID) ([]binding, error) {
	if !semi {
		op := p.orders[0]
		return e.runPlanTasks(p, appendPlanChunked(nil, e.planSeeds(p, op, nil), op, nil, e.workers))
	}
	var tasks []*planTask
	for pivot, op := range p.orders {
		allow := pivotFilter(pivot, boundary)
		tasks = appendPlanChunked(tasks, e.planSeeds(p, op, allow), op, allow, e.workers)
	}
	return e.runPlanTasks(p, tasks)
}

// runPlanTasks drives every task's seeds through a per-task executor on the
// worker pool (the plan itself is immutable and shared), then merges the out
// buffers in task order. The store is frozen for the duration so that any
// write during the concurrent phase fails loudly instead of racing. Workers
// only read the store, the superseded set, and the interner — assignment
// results live in value slots and are never interned during the join, so no
// worker ever writes shared state.
func (e *engine) runPlanTasks(p *plan, tasks []*planTask) ([]binding, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	e.store.Freeze()
	err := runParallel(e.workers, len(tasks), func(i int) error {
		if err := e.checkCtx(); err != nil {
			return err
		}
		t := tasks[i]
		x := e.newExecutor(p, t.op, t.allow)
		first := t.op.order[0]
		for _, s := range t.seeds {
			copy(x.frame, s.frame)
			x.facts[first] = s.fact
			if err := x.afterBind(0); err != nil {
				return err
			}
		}
		t.out = x.out
		return nil
	})
	e.store.Thaw()
	if err != nil {
		return nil, err
	}
	var all []binding
	for _, t := range tasks {
		all = append(all, t.out...)
	}
	if len(all) == 0 {
		return nil, nil
	}
	return all, nil
}

// runParallel runs task(0..n-1) on up to `workers` goroutines, handing out
// indexes through an atomic counter (cheap work stealing). It returns the
// error of the lowest-indexed failing task, which makes error selection
// deterministic and independent of goroutine scheduling.
func runParallel(workers, n int, task func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
