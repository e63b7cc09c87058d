package chase

// Cancellation. Every entry point has a Context variant (RunContext,
// RunLiveContext, Live.SetContext) that makes the engine cooperative: the
// context is checked at every round boundary, before every rule evaluation
// within a round, before every pivot and every depth of a batch join (see
// batch.go), before every constraint check, and at the top of every
// goal-directed re-derivation. The engine never checks inside
// the emission loop, so a cancellation can only ever land between two
// completed rule evaluations — never between a fact and its provenance.
//
// State after cancellation. A canceled run returns ErrCanceled (or
// ErrDeadline when the context's deadline passed) and leaves the engine
// exactly as the last completed rule evaluation left it: the store holds
// every fact emitted so far with full provenance, no fact is half-recorded,
// and the semi-naive boundary of the rule whose join was interrupted is
// rolled back (applyPlainRule/applyAggRule restore lastSeen and the
// aggregation bookkeeping on a join error), so the interrupted evaluation is
// not silently skipped. Concretely:
//
//   - RunContext/RunLiveContext discard the engine on error; a later run over
//     the same program builds a fresh store and is byte-for-byte identical to
//     an uncancelled run (the differential suite in cancel_test.go proves
//     it).
//   - A Live whose Saturate was canceled is still consistent: calling
//     Saturate again (after SetContext with a live context) resumes toward
//     the same fixpoint. The incremental Maintainer deliberately does not
//     resume — a canceled update poisons it like any other mid-repair
//     failure, so a half-repaired fixpoint is never served (see
//     incremental.Maintainer.UpdateContext).

import (
	"context"
	"errors"
)

// ErrCanceled reports that a chase run was canceled through its context.
// It is returned (wrapped) by RunContext, RunLiveContext, Live.Saturate and
// everything layered above them; match with errors.Is.
var ErrCanceled = errors.New("chase: run canceled")

// ErrDeadline reports that a chase run exceeded its context's deadline.
var ErrDeadline = errors.New("chase: deadline exceeded")

// ContextErr maps a context's error to the chase-typed cancellation error:
// nil while the context is live, ErrCanceled after a cancel, ErrDeadline
// after the deadline. Layers above the engine (incremental, core, server)
// use it to classify their own checkpoints consistently.
func ContextErr(ctx context.Context) error {
	switch ctx.Err() {
	case context.Canceled:
		return ErrCanceled
	case context.DeadlineExceeded:
		return ErrDeadline
	}
	return nil
}

// IsCancellation reports whether err is (or wraps) a cancellation or
// deadline error — the errors after which a fresh attempt may succeed, as
// opposed to errors of the program itself.
func IsCancellation(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline)
}

// checkCtx is the engine's cancellation checkpoint; nil context (the
// context-free entry points) makes it free.
func (e *engine) checkCtx() error {
	if e.ctx == nil {
		return nil
	}
	return ContextErr(e.ctx)
}
