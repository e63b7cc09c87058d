package database

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/term"
)

// checkColumnarCoherent verifies every documented invariant of one index
// against the store's row representation: ids mirror the live byPred bucket
// ascending, dense columns mirror the rows (NoValue-padded), and every
// positional run is sorted by (value, dense) with base indexes < baseN ≤
// tail indexes and exactly the non-NoValue rows covered.
func checkColumnarCoherent(t *testing.T, s *Store, pred string) {
	t.Helper()
	c := s.EnsureColumnar(pred)
	bucket := s.byPred[pred]
	if c.Extent() != len(bucket) {
		t.Fatalf("%s: extent %d, bucket %d", pred, c.Extent(), len(bucket))
	}
	for k, id := range bucket {
		if c.ID(int32(k)) != id {
			t.Fatalf("%s: dense %d holds id %d, bucket has %d", pred, k, c.ID(int32(k)), id)
		}
		if k > 0 && bucket[k-1] >= id {
			t.Fatalf("%s: bucket not ascending at %d", pred, k)
		}
		row := s.rows[id]
		if c.RowLen(int32(k)) != len(row) {
			t.Fatalf("%s: dense %d arity %d, row has %d", pred, k, c.RowLen(int32(k)), len(row))
		}
		for pos := 0; pos < len(c.cols); pos++ {
			want := term.NoValue
			if pos < len(row) {
				want = row[pos]
			}
			if got := c.Col(pos)[k]; got != want {
				t.Fatalf("%s: col[%d][%d] = %d, want %d", pred, pos, k, got, want)
			}
		}
	}
	for pos := 0; pos < len(c.cols); pos++ {
		covered := map[int32]bool{}
		for runIdx, run := range []colRun{c.base[pos], c.tail[pos]} {
			for i, k := range run.ks {
				if run.vals[i] != c.cols[pos][k] {
					t.Fatalf("%s: run val mismatch at pos %d", pred, pos)
				}
				if i > 0 && (run.vals[i-1] > run.vals[i] ||
					(run.vals[i-1] == run.vals[i] && run.ks[i-1] >= run.ks[i])) {
					t.Fatalf("%s: pos %d run %d not sorted by (value, dense)", pred, pos, runIdx)
				}
				if runIdx == 0 && int(k) >= c.baseN {
					t.Fatalf("%s: base run holds dense %d beyond baseN %d", pred, k, c.baseN)
				}
				if runIdx == 1 && int(k) < c.baseN {
					t.Fatalf("%s: tail run holds dense %d below baseN %d", pred, k, c.baseN)
				}
				covered[k] = true
			}
		}
		for k := int32(0); k < int32(c.Extent()); k++ {
			want := c.cols[pos][k] != term.NoValue
			if covered[k] != want {
				t.Fatalf("%s: pos %d dense %d covered=%v, want %v", pred, pos, k, covered[k], want)
			}
		}
	}
}

// runsOf concatenates base and tail candidates for one probe.
func runsOf(c *Columnar, pos int, v term.ValueID) []int32 {
	b, tl := c.Runs(pos, v)
	out := append([]int32{}, b...)
	return append(out, tl...)
}

// TestColumnarBuildAndProbe: a freshly built index answers positional probes
// with exactly the matching facts, in ascending dense (= fact id) order.
func TestColumnarBuildAndProbe(t *testing.T) {
	s := NewStore()
	s.MustAdd(own("A", "B", 0.5), true)
	s.MustAdd(own("A", "C", 0.3), true)
	s.MustAdd(own("B", "C", 0.5), true)
	c := s.EnsureColumnar("Own")
	checkColumnarCoherent(t, s, "Own")

	idA, ok := s.Interner().Lookup(term.Str("A"))
	if !ok {
		t.Fatal("A not interned")
	}
	got := runsOf(c, 0, idA)
	if len(got) != 2 || c.ID(got[0]) != 0 || c.ID(got[1]) != 1 {
		t.Fatalf("probe pos0=A: %v", got)
	}
	idHalf, _ := s.Interner().Lookup(term.Float(0.5))
	if got := runsOf(c, 2, idHalf); len(got) != 2 {
		t.Fatalf("probe pos2=0.5: %v", got)
	}
	if got := runsOf(c, 1, idA); len(got) != 0 {
		t.Fatalf("probe pos1=A should be empty: %v", got)
	}
	if c.RunLen(0, idA) != 2 {
		t.Fatalf("RunLen = %d, want 2", c.RunLen(0, idA))
	}
}

// TestColumnarAppendRefreshAndMerge: interleaving inserts with probes keeps
// the index coherent through tail refreshes and across the tail→base merge
// threshold, with the stats counters recording the maintenance work.
func TestColumnarAppendRefreshAndMerge(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.MustAdd(own(fmt.Sprintf("N%d", i), fmt.Sprintf("N%d", i+1), 0.5), true)
	}
	s.EnsureColumnar("Own")
	before := s.ColumnarStats()
	// Push well past the merge threshold (tail > 64 and tail*4 > base) in
	// several waves, refreshing between waves.
	for wave := 0; wave < 5; wave++ {
		for i := 0; i < 60; i++ {
			s.MustAdd(own(fmt.Sprintf("W%dN%d", wave, i), "Hub", 0.25), true)
		}
		checkColumnarCoherent(t, s, "Own")
	}
	after := s.ColumnarStats()
	if after.AppendedRows-before.AppendedRows != 300 {
		t.Fatalf("appended rows moved by %d, want 300", after.AppendedRows-before.AppendedRows)
	}
	if after.TailRefreshes == before.TailRefreshes {
		t.Fatal("no tail refresh counted")
	}
	if after.Merges == before.Merges {
		t.Fatal("no merge counted despite 300 appended rows")
	}
	c := s.EnsureColumnar("Own")
	idHub, _ := s.Interner().Lookup(term.Str("Hub"))
	if got := runsOf(c, 1, idHub); len(got) != 300 {
		t.Fatalf("Hub probe returned %d candidates, want 300", len(got))
	}
}

// TestColumnarRetractRebuilds: a retraction invalidates the index; the next
// EnsureColumnar rebuilds it over the shrunken live extent.
func TestColumnarRetractRebuilds(t *testing.T) {
	s := NewStore()
	f1, _, _ := s.Add(own("A", "B", 0.5), true)
	s.MustAdd(own("B", "C", 0.5), true)
	s.EnsureColumnar("Own")
	rebuildsBefore := s.ColumnarStats().Rebuilds
	if err := s.Retract(f1.ID); err != nil {
		t.Fatal(err)
	}
	c := s.EnsureColumnar("Own")
	if c.Extent() != 1 || c.ID(0) != 1 {
		t.Fatalf("post-retract extent: %d ids %v", c.Extent(), c.ids)
	}
	checkColumnarCoherent(t, s, "Own")
	if got := s.ColumnarStats().Rebuilds; got != rebuildsBefore+1 {
		t.Fatalf("rebuilds = %d, want %d", got, rebuildsBefore+1)
	}
}

// TestColumnarMixedArity: facts of different arities under one predicate pad
// missing positions with NoValue and keep runs covering only real values.
func TestColumnarMixedArity(t *testing.T) {
	s := NewStore()
	s.MustAdd(ast.NewAtom("P", term.Str("a")), true)
	s.MustAdd(ast.NewAtom("P", term.Str("a"), term.Str("b")), true)
	s.EnsureColumnar("P")
	checkColumnarCoherent(t, s, "P")
	// Growing arity through the append path must pad old facts too.
	s.MustAdd(ast.NewAtom("P", term.Str("a"), term.Str("b"), term.Str("c")), true)
	c := s.EnsureColumnar("P")
	checkColumnarCoherent(t, s, "P")
	if c.RowLen(0) != 1 || c.RowLen(2) != 3 {
		t.Fatalf("row lens: %d %d", c.RowLen(0), c.RowLen(2))
	}
	idA, _ := s.Interner().Lookup(term.Str("a"))
	if got := runsOf(c, 0, idA); len(got) != 3 {
		t.Fatalf("pos0=a candidates: %v", got)
	}
	idB, _ := s.Interner().Lookup(term.Str("b"))
	if got := runsOf(c, 1, idB); len(got) != 2 {
		t.Fatalf("pos1=b candidates: %v", got)
	}
}

// TestColumnarDenseBoundary: the dense translation of a fact-id boundary
// splits old from new exactly.
func TestColumnarDenseBoundary(t *testing.T) {
	s := NewStore()
	s.MustAdd(own("A", "B", 0.5), true)
	s.MustAdd(ast.NewAtom("Other", term.Str("x")), true) // id 1, different predicate
	s.MustAdd(own("B", "C", 0.5), true)                  // id 2
	c := s.EnsureColumnar("Own")
	for boundary, want := range map[FactID]int32{0: 0, 1: 1, 2: 1, 3: 2, 100: 2} {
		if got := c.DenseBoundary(boundary); got != want {
			t.Errorf("DenseBoundary(%d) = %d, want %d", boundary, got, want)
		}
	}
}

// TestColumnarEmptyPredicate: a predicate with no facts yields a usable
// empty index (constraint pseudo-rules probe never-derived predicates).
func TestColumnarEmptyPredicate(t *testing.T) {
	s := NewStore()
	c := s.EnsureColumnar("Nothing")
	if c.Extent() != 0 {
		t.Fatalf("extent = %d", c.Extent())
	}
	if got := runsOf(c, 0, 0); len(got) != 0 {
		t.Fatalf("probe on empty index: %v", got)
	}
	if c.AvgRun(0) != 1 {
		t.Fatalf("AvgRun on empty index = %d, want 1", c.AvgRun(0))
	}
}

// TestColumnarDenseOrderMatchesMatch: the probe candidates agree with the
// hash-index Match on both membership and (fact id) order — the property the
// batch executor's byte-identity rests on.
func TestColumnarDenseOrderMatchesMatch(t *testing.T) {
	s := NewStore()
	names := []string{"A", "B", "C", "A", "B", "A"}
	for i, n := range names {
		s.MustAdd(own(n, fmt.Sprintf("T%d", i%3), 0.5), true)
	}
	c := s.EnsureColumnar("Own")
	for _, n := range []string{"A", "B", "C"} {
		id, _ := s.Interner().Lookup(term.Str(n))
		var got []FactID
		for _, k := range runsOf(c, 0, id) {
			got = append(got, c.ID(k))
		}
		want := s.Match(ast.NewAtom("Own", term.Str(n), term.Var("Y"), term.Var("S")))
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("%s: candidates not id-sorted: %v", n, got)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: columnar %v vs hash-index %v", n, got, want)
		}
	}
}

// TestColumnarLazyRuns: EnsureColumnarRuns sorts only the listed positions,
// later requests accumulate, probing a never-requested position panics, and
// appends keep partially-built indexes coherent.
func TestColumnarLazyRuns(t *testing.T) {
	s := NewStore()
	s.MustAdd(own("A", "B", 0.5), true)
	s.MustAdd(own("A", "C", 0.3), true)
	c := s.EnsureColumnarRuns("Own", []int{0})
	if !c.built[0] || c.built[1] || c.built[2] {
		t.Fatalf("built = %v, want position 0 only", c.built)
	}
	idA, _ := s.Interner().Lookup(term.Str("A"))
	if got := runsOf(c, 0, idA); len(got) != 2 {
		t.Fatalf("pos0=A: %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("probing an unbuilt position did not panic")
			}
		}()
		c.Runs(1, idA)
	}()
	// Appends must maintain the built position and leave the rest data-only.
	s.MustAdd(own("B", "C", 0.5), true)
	c = s.EnsureColumnarRuns("Own", []int{0})
	idB, _ := s.Interner().Lookup(term.Str("B"))
	if got := runsOf(c, 0, idB); len(got) != 1 || c.ID(got[0]) != 2 {
		t.Fatalf("pos0=B after append: %v", got)
	}
	// A later request builds the remaining position over the full extent.
	c = s.EnsureColumnarRuns("Own", []int{1})
	idC, _ := s.Interner().Lookup(term.Str("C"))
	if got := runsOf(c, 1, idC); len(got) != 2 {
		t.Fatalf("pos1=C: %v", got)
	}
	// The build-everything form still upgrades the whole index.
	checkColumnarCoherent(t, s, "Own")
}

// TestColumnarLazyRunsSurviveRetract: a rebuild after retraction re-sorts
// exactly the previously requested positions.
func TestColumnarLazyRunsSurviveRetract(t *testing.T) {
	s := NewStore()
	f1, _, _ := s.Add(own("A", "B", 0.5), true)
	s.MustAdd(own("B", "C", 0.7), true)
	s.EnsureColumnarRuns("Own", []int{0})
	if err := s.Retract(f1.ID); err != nil {
		t.Fatal(err)
	}
	c := s.EnsureColumnarRuns("Own", nil)
	if !c.built[0] || c.built[1] {
		t.Fatalf("built after rebuild = %v, want position 0 only", c.built)
	}
	idB, _ := s.Interner().Lookup(term.Str("B"))
	if got := runsOf(c, 0, idB); len(got) != 1 || c.ID(got[0]) != 1 {
		t.Fatalf("pos0=B after retract: %v", got)
	}
}

// TestColumnarRadixSort: runs long enough for the radix path (≥ 2048
// entries, built, refreshed, and merged) satisfy the same (value, dense)
// invariants the comparator path guarantees.
func TestColumnarRadixSort(t *testing.T) {
	s := NewStore()
	// Deterministic shuffled values with heavy duplication so the sort sees
	// long equal-value groups whose dense tie-break matters.
	for i := 0; i < 3000; i++ {
		s.MustAdd(own(fmt.Sprintf("C%d", i*7919%257), fmt.Sprintf("D%d", i%11), float64(i%13)/13), true)
	}
	checkColumnarCoherent(t, s, "Own")
	// Append another radix-sized wave to drive a tail sort and the merge
	// (each fact is unique via the share, names repeat heavily).
	for i := 0; i < 3000; i++ {
		s.MustAdd(own(fmt.Sprintf("C%d", i*104729%257), "Hub", float64(i)/3000), true)
	}
	checkColumnarCoherent(t, s, "Own")
	c := s.EnsureColumnar("Own")
	idHub, _ := s.Interner().Lookup(term.Str("Hub"))
	if got := runsOf(c, 1, idHub); len(got) != 3000 {
		t.Fatalf("Hub probe: %d candidates, want 3000", len(got))
	}
}

// seekOf is runsOf through a fresh iterator: one Seek on a just-created
// cursor must answer exactly like a direct Runs probe.
func seekOf(c *Columnar, pos int, v term.ValueID) []int32 {
	it := c.Iter(pos)
	b, tl := it.Seek(v)
	out := append([]int32{}, b...)
	return append(out, tl...)
}

// TestRunIterMatchesRuns: for every interned value — present or absent —
// Seek answers identically to Runs, whether the values are visited in
// ascending order on one iterator (the galloping fast path), in descending
// order (backward restarts), or each on a fresh iterator.
func TestRunIterMatchesRuns(t *testing.T) {
	s := NewStore()
	for i := 0; i < 40; i++ {
		s.MustAdd(own(fmt.Sprintf("C%d", i%7), fmt.Sprintf("C%d", (i*3)%11), float64(i%5)/4), true)
	}
	c := s.EnsureColumnar("Own")
	nvals := term.ValueID(s.Interner().Len())
	for pos := 0; pos < 3; pos++ {
		asc := c.Iter(pos)
		desc := c.Iter(pos)
		for v := term.ValueID(0); v < nvals; v++ {
			want := runsOf(c, pos, v)
			if got := seekOf(c, pos, v); !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("pos %d fresh Seek(%d) = %v, want %v", pos, v, got, want)
			}
			b, tl := asc.Seek(v)
			if got := append(append([]int32{}, b...), tl...); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("pos %d ascending Seek(%d) = %v, want %v", pos, v, got, want)
			}
			d := nvals - 1 - v
			b, tl = desc.Seek(d)
			if got, dw := append(append([]int32{}, b...), tl...), runsOf(c, pos, d); fmt.Sprint(got) != fmt.Sprint(dw) {
				t.Fatalf("pos %d descending Seek(%d) = %v, want %v", pos, d, got, dw)
			}
		}
		if asc.Seeks != uint64(nvals) {
			t.Fatalf("pos %d: Seeks = %d, want %d", pos, asc.Seeks, nvals)
		}
		if asc.GallopSteps == 0 || desc.GallopSteps == 0 {
			t.Fatalf("pos %d: galloping did no work (asc %d, desc %d)", pos, asc.GallopSteps, desc.GallopSteps)
		}
	}
	// Seeking past every interned value and at a huge id is empty, not a
	// crash; an out-of-range position yields an always-empty iterator.
	it := c.Iter(0)
	if b, tl := it.Seek(nvals + 100); len(b)+len(tl) != 0 {
		t.Fatalf("absent value: %v %v", b, tl)
	}
	far := c.Iter(9)
	if b, tl := far.Seek(0); len(b)+len(tl) != 0 {
		t.Fatalf("out-of-range position: %v %v", b, tl)
	}
}

// TestRunIterEmptyAndTailOnly: iterators stay correct on an empty
// predicate, and on an index whose base runs are empty because every fact
// arrived after the build (tail-only).
func TestRunIterEmptyAndTailOnly(t *testing.T) {
	s := NewStore()
	s.MustAdd(own("A", "B", 0.5), true)
	c := s.EnsureColumnar("Own")
	idA, _ := s.Interner().Lookup(term.Str("A"))

	// Tail-only: grow the predicate after the build and re-ensure; the new
	// facts live in the LSM tail and Seek must surface them.
	for i := 0; i < 5; i++ {
		s.MustAdd(own("A", fmt.Sprintf("T%d", i), 0.9), true)
	}
	c = s.EnsureColumnar("Own")
	it := c.Iter(0)
	b, tl := it.Seek(idA)
	if len(b)+len(tl) != 6 {
		t.Fatalf("tail-only growth: base %v tail %v, want 6 total", b, tl)
	}
	if len(tl) == 0 {
		t.Fatal("expected candidates in the tail run")
	}
	if got := runsOf(c, 0, idA); fmt.Sprint(append(append([]int32{}, b...), tl...)) != fmt.Sprint(got) {
		t.Fatalf("Seek disagrees with Runs: %v %v vs %v", b, tl, got)
	}

	// Empty predicate: EnsureColumnar of a predicate with no facts.
	e := s.EnsureColumnar("Nothing")
	eit := e.Iter(0)
	if b, tl := eit.Seek(idA); len(b)+len(tl) != 0 {
		t.Fatalf("empty predicate: %v %v", b, tl)
	}
}

// TestRunIterPostRetractRebuild: a retraction invalidates the index; the
// rebuilt index's iterators see exactly the surviving facts.
func TestRunIterPostRetractRebuild(t *testing.T) {
	s := NewStore()
	f1, _, _ := s.Add(own("A", "B", 0.5), true)
	s.MustAdd(own("A", "C", 0.7), true)
	s.MustAdd(own("B", "C", 0.9), true)
	s.EnsureColumnar("Own")
	if err := s.Retract(f1.ID); err != nil {
		t.Fatal(err)
	}
	c := s.EnsureColumnar("Own")
	idA, _ := s.Interner().Lookup(term.Str("A"))
	it := c.Iter(0)
	b, tl := it.Seek(idA)
	if got := append(append([]int32{}, b...), tl...); len(got) != 1 || c.ID(got[0]) != 1 {
		t.Fatalf("post-retract Seek(A): base %v tail %v", b, tl)
	}
	checkColumnarCoherent(t, s, "Own")
}

// TestRunIterUnbuiltPanics: an iterator over a position whose runs were
// never ensured panics exactly like Runs, so a join can never silently read
// an unsorted column.
func TestRunIterUnbuiltPanics(t *testing.T) {
	s := NewStore()
	s.MustAdd(own("A", "B", 0.5), true)
	c := s.EnsureColumnarRuns("Own", []int{0})
	if it := c.Iter(0); it.base == nil {
		t.Fatal("built position must iterate")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("iterating an unbuilt position did not panic")
		}
	}()
	c.Iter(1)
}
