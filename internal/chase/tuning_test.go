package chase

import (
	"math"

	"repro/internal/ast"
)

// The test side of the testTuning hook: named tunings that pin the engine's
// join-strategy choice or switch in a reference implementation, and a
// runner that installs one for the duration of a single run. Tests in this
// directory's external package (chase_test) reach the same hook through
// WithTuning.

func tuned(mod func(*tuning)) tuning {
	tn := defaultTuning
	mod(&tn)
	return tn
}

var (
	// frameOnly never picks the batch executor; batchOnly picks it for every
	// join the per-pivot fallback does not claim (the shipped thresholds
	// below the cut-over).
	frameOnly = tuned(func(tn *tuning) { tn.batchMinExtent = math.MaxInt })
	batchOnly = tuned(func(tn *tuning) { tn.batchMinExtent = 0 })
	// The three batch tunings below pin one join strategy each, so programs
	// far too small to reach a threshold on their own still exercise it:
	// every bound probe a leapfrog merge, every bound probe a per-tuple
	// probe, and a per-pivot frame fallback for every single-fact delta.
	batchLeapfrog = tuned(func(tn *tuning) {
		tn.batchMinExtent, tn.frameFallbackMin, tn.mergeThreshold = 0, 0, 0
	})
	batchProbe = tuned(func(tn *tuning) {
		tn.batchMinExtent, tn.frameFallbackMin, tn.mergeThreshold = 0, 0, math.MaxInt
	})
	batchFallback = tuned(func(tn *tuning) {
		tn.batchMinExtent, tn.frameFallbackMin = 0, 2
	})
	// legacyRef is the reference interpreter; naiveRef the reference
	// evaluation order on the default executor.
	legacyRef = tuned(func(tn *tuning) { tn.legacy = true })
	naiveRef  = tuned(func(tn *tuning) { tn.naive = true })
)

// batchTunings are the forced batch-executor variants the differential
// suites run.
var batchTunings = []struct {
	name string
	tn   tuning
}{
	{"batch", batchOnly},
	{"batch-leapfrog", batchLeapfrog},
	{"batch-probe", batchProbe},
	{"batch-fallback", batchFallback},
}

// withNaive returns the tuning with naive evaluation switched as given.
func (tn tuning) withNaive(naive bool) tuning {
	tn.naive = naive
	return tn
}

// runTuned is Run on an engine built under the given tuning.
func runTuned(tn tuning, p *ast.Program, opts Options) (*Result, error) {
	testTuning = &tn
	defer func() { testTuning = nil }()
	return Run(p, opts)
}

// Tuning names the forced executor choices external tests may install.
type Tuning int

const (
	// FrameOnly and BatchOnly pin the executor with the strategy thresholds
	// inside the batch executor as shipped; BatchAlways also disables the
	// small-delta fallbacks, so even a one-fact update runs a batch pass.
	FrameOnly Tuning = iota
	BatchOnly
	BatchAlways
)

// WithTuning runs f with every engine it builds pinned to the given
// executor choice.
func WithTuning(tn Tuning, f func()) {
	pinned := [...]tuning{FrameOnly: frameOnly, BatchOnly: batchOnly, BatchAlways: batchLeapfrog}[tn]
	testTuning = &pinned
	defer func() { testTuning = nil }()
	f()
}
