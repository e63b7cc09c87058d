package chase

// Cancellation tests: typed errors, checkpoint promptness, and the
// differential suite proving that a canceled run leaves nothing behind — a
// fresh run after a mid-chase cancel is byte-for-byte identical to an
// uncanceled run.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parser"
)

// countdownCtx is a deterministic cancellation source: Err is nil for the
// first n checks and context.Canceled from then on. The engine polls Err at
// every round/rule/chunk boundary, so "cancel at check k" lands the
// cancellation at a reproducible point of the chase regardless of wall
// time. Done returns nil (the engine never selects on it); over counts
// checks made after the cancellation fired — the unwind length.
type countdownCtx struct {
	remaining atomic.Int64
	over      atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		c.over.Add(1)
		return context.Canceled
	}
	return nil
}

// countingCtx never cancels; it counts how many cancellation checks a run
// performs, which calibrates where the differential suite can aim.
type countingCtx struct{ calls atomic.Int64 }

func (c *countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countingCtx) Done() <-chan struct{}       { return nil }
func (c *countingCtx) Value(any) any               { return nil }
func (c *countingCtx) Err() error                  { c.calls.Add(1); return nil }

func TestRunContextPreCanceled(t *testing.T) {
	prog := parser.MustParse(stressSimpleSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, prog, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("canceled run returned a result")
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := RunContext(dctx, prog, Options{}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !IsCancellation(ErrCanceled) || !IsCancellation(ErrDeadline) || IsCancellation(errors.New("other")) {
		t.Fatal("IsCancellation misclassifies")
	}
}

// TestRunContextBackgroundIdentical: plumbing a live context changes
// nothing — RunContext(Background) is byte-identical to Run.
func TestRunContextBackgroundIdentical(t *testing.T) {
	for name, src := range map[string]string{
		"stress-simple": stressSimpleSrc,
		"irish-bank":    irishBankSrc,
		"two-channel":   twoChannelSrc,
		"negation":      eligibleSrc,
	} {
		prog := parser.MustParse(src)
		want := MustRun(prog, Options{})
		got, err := RunContext(context.Background(), prog, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diffResults(t, name, want, got)
		counting := &countingCtx{}
		got2, err := RunContext(counting, prog, Options{})
		if err != nil {
			t.Fatalf("%s counting: %v", name, err)
		}
		diffResults(t, name+" counting", want, got2)
		if counting.calls.Load() == 0 {
			t.Errorf("%s: no cancellation checks performed", name)
		}
	}
}

// cancelDifferential cancels a run of prog at check number cancelAt, then
// verifies the typed error, the bounded unwind, and that a fresh run still
// matches the oracle byte for byte.
func cancelDifferential(t *testing.T, label string, prog string, extra []string, cancelAt int64, oracle *Result) {
	t.Helper()
	p := parser.MustParse(prog + "\n" + join(extra))
	ctx := newCountdownCtx(cancelAt)
	res, err := RunContext(ctx, p, Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("%s: cancel at %d: err = %v, want ErrCanceled", label, cancelAt, err)
	}
	if res != nil {
		t.Fatalf("%s: canceled run returned a result", label)
	}
	// Prompt return: after the cancellation fires, the engine may observe it
	// a handful more times while unwinding (the round-loop re-check) but
	// must not keep chasing.
	if over := ctx.over.Load(); over > 64 {
		t.Errorf("%s: %d cancellation checks after firing — not returning at a boundary?", label, over)
	}
	// A fresh run over the same program is byte-identical to the oracle:
	// the canceled run left no shared state behind (no half-recorded
	// facts).
	re, err := RunContext(context.Background(), p, Options{})
	if err != nil {
		t.Fatalf("%s: fresh run after cancel: %v", label, err)
	}
	diffResults(t, label, oracle, re)
}

func join(lines []string) string {
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// TestCancelMidChaseDifferential is the acceptance differential: over the
// four program shapes (recursive aggregation control, existential
// close-link, two-channel aggregation, stratified negation) and ≥12 random
// seeds, cancel at a random checkpoint, then prove a fresh run still equals
// the oracle.
func TestCancelMidChaseDifferential(t *testing.T) {
	controlRules := `
@output("Control").
@label("s1") Control(X, Y) :- Own(X, Y, S), S > 0.5.
@label("s2") Control(X, X) :- Company(X).
@label("s3") Control(X, Y) :- Control(X, Z), Own(Z, Y, S), TS = sum(S), TS > 0.5.
`
	// Twelve random ownership instances of the control program, each
	// canceled at a seed-derived checkpoint.
	for seed := int64(0); seed < 12; seed++ {
		facts := randomOwnership(seed)
		prog := parser.MustParse(controlRules)
		oracle, err := RunContext(context.Background(), prog, Options{ExtraFacts: facts})
		if err != nil {
			t.Fatalf("seed %d oracle: %v", seed, err)
		}
		counting := &countingCtx{}
		if _, err := RunContext(counting, prog, Options{ExtraFacts: facts}); err != nil {
			t.Fatalf("seed %d calibration: %v", seed, err)
		}
		total := counting.calls.Load()
		rng := rand.New(rand.NewSource(seed))
		cancelAt := rng.Int63n(total)
		label := fmt.Sprintf("control seed=%d cancelAt=%d", seed, cancelAt)
		ctx := newCountdownCtx(cancelAt)
		res, err := RunContext(ctx, prog, Options{ExtraFacts: facts})
		if !errors.Is(err, ErrCanceled) || res != nil {
			t.Fatalf("%s: res=%v err=%v, want nil + ErrCanceled", label, res, err)
		}
		re, err := RunContext(context.Background(), prog, Options{ExtraFacts: facts})
		if err != nil {
			t.Fatalf("%s: fresh run: %v", label, err)
		}
		diffResults(t, label, oracle, re)
	}

	// The fixed program shapes, canceled at several points each.
	for name, src := range map[string]string{
		"close-link": irishBankSrc,
		"agg":        twoChannelSrc,
		"negation":   eligibleSrc,
	} {
		prog := parser.MustParse(src)
		oracle := MustRun(prog, Options{})
		counting := &countingCtx{}
		if _, err := RunContext(counting, prog, Options{}); err != nil {
			t.Fatalf("%s calibration: %v", name, err)
		}
		total := counting.calls.Load()
		rng := rand.New(rand.NewSource(int64(len(name))))
		for i := 0; i < 4; i++ {
			cancelAt := rng.Int63n(total)
			cancelDifferential(t, fmt.Sprintf("%s cancelAt=%d", name, cancelAt),
				src, nil, cancelAt, oracle)
		}
	}
}

// TestRunLiveContextDetachesContext: a context that expires after the
// initial fixpoint must not haunt the returned Live — later saturation
// passes install their own context via SetContext.
func TestRunLiveContextDetachesContext(t *testing.T) {
	prog := parser.MustParse(twoChannelSrc)
	ctx, cancel := context.WithCancel(context.Background())
	l, err := RunLiveContext(ctx, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // the request that built the fixpoint is gone
	if _, err := l.Saturate(nil); err != nil {
		t.Fatalf("Saturate after builder context died: %v", err)
	}
	// An explicitly installed dead context does cancel; clearing it
	// restores normal operation.
	l.SetContext(ctx)
	if _, err := l.Saturate(nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Saturate under dead context: err = %v, want ErrCanceled", err)
	}
	l.SetContext(context.Background())
	if _, err := l.Saturate(nil); err != nil {
		t.Fatalf("Saturate after context cleared: %v", err)
	}
}
