package robust

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"calib/internal/obs"
)

func TestErrorTaxonomy(t *testing.T) {
	cause := fmt.Errorf("pivot 17 lost feasibility")
	err := Errf(ErrNumeric, "lp", 3, cause)

	if !errors.Is(err, ErrNumeric) {
		t.Fatalf("errors.Is(err, ErrNumeric) = false")
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("errors.Is(err, ErrCanceled) = true for a numeric error")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("underlying cause not reachable through Unwrap")
	}
	var re *Error
	if !errors.As(err, &re) || re.Phase != "lp" || re.Component != 3 {
		t.Fatalf("errors.As lost provenance: %+v", re)
	}
	for _, want := range []string{"robust:", "component 3", "lp", "numerical failure", "pivot 17"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Error() = %q, missing %q", err.Error(), want)
		}
	}
}

func TestClassifyAndReason(t *testing.T) {
	wrapped := fmt.Errorf("outer: %w", Errf(ErrInfeasible, "tise", -1, nil))
	cases := []struct {
		err    error
		kind   error
		reason string
	}{
		{nil, nil, "error"},
		{context.Canceled, ErrCanceled, "canceled"},
		{context.DeadlineExceeded, ErrCanceled, "deadline"},
		{Errf(ErrBudgetExhausted, "", -1, nil), ErrBudgetExhausted, "budget"},
		{Errf(ErrCanceled, "exact", 0, context.DeadlineExceeded), ErrCanceled, "deadline"},
		{Errf(ErrCanceled, "exact", 0, context.Canceled), ErrCanceled, "canceled"},
		{wrapped, ErrInfeasible, "infeasible"},
		{Errf(ErrPanic, "pool", 2, fmt.Errorf("boom")), ErrPanic, "panic"},
		{Errf(ErrNumeric, "lp", -1, nil), ErrNumeric, "numeric"},
		{fmt.Errorf("disk on fire"), nil, "error"},
	}
	for i, tc := range cases {
		if got := Classify(tc.err); got != tc.kind {
			t.Errorf("case %d: Classify(%v) = %v, want %v", i, tc.err, got, tc.kind)
		}
		if got := Reason(tc.err); got != tc.reason {
			t.Errorf("case %d: Reason(%v) = %q, want %q", i, tc.err, got, tc.reason)
		}
	}
}

func TestComponentize(t *testing.T) {
	// Taxonomy errors gain the component without losing the chain.
	err := Componentize(Errf(ErrNumeric, "lp", -1, context.DeadlineExceeded), 4)
	var re *Error
	if !errors.As(err, &re) || re.Component != 4 {
		t.Fatalf("Componentize did not stamp component: %v", err)
	}
	if !errors.Is(err, ErrNumeric) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Componentize broke the unwrap chain: %v", err)
	}

	// An already-stamped component wins (the inner frame is closer to
	// the fault) and the error is returned untouched.
	inner := Errf(ErrPanic, "pool", 2, nil)
	if got := Componentize(inner, 9); got != inner {
		t.Fatalf("Componentize re-wrapped an already-stamped error")
	}

	// Non-taxonomy errors keep their own type visible.
	type weird struct{ error }
	w := weird{fmt.Errorf("odd")}
	err = Componentize(w, 1)
	var back weird
	if !errors.As(err, &back) {
		t.Fatalf("Componentize hid the original error type: %v", err)
	}
	if !strings.Contains(err.Error(), "component 1") {
		t.Fatalf("Componentize lost the component prefix: %v", err)
	}

	if Componentize(nil, 3) != nil {
		t.Fatalf("Componentize(nil) != nil")
	}
}

func TestNilControlIsFree(t *testing.T) {
	var c *Control
	if err := c.Charge(1 << 40); err != nil {
		t.Fatalf("nil Charge = %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("nil Err = %v", err)
	}
	if c.Spent() != 0 {
		t.Fatalf("nil Spent = %d", c.Spent())
	}
	if _, ok := c.Remaining(); ok {
		t.Fatalf("nil Remaining ok = true")
	}
	if c.Context() == nil {
		t.Fatalf("nil Context() = nil")
	}
	if c.CheckFunc("lp") != nil {
		t.Fatalf("nil CheckFunc != nil; engines rely on nil meaning never-check")
	}
	child, cancel := c.Child(0.5)
	cancel()
	if child != nil {
		t.Fatalf("nil Child != nil")
	}
	// An unlimited context with no budget collapses to the nil control.
	if NewControl(context.Background(), 0, nil) != nil {
		t.Fatalf("NewControl(Background, 0) != nil")
	}
}

func TestControlBudget(t *testing.T) {
	met := obs.NewRegistry()
	c := NewControl(context.Background(), 10, met)
	if c == nil {
		t.Fatalf("NewControl with budget returned nil")
	}
	for i := 0; i < 10; i++ {
		if err := c.Charge(1); err != nil {
			t.Fatalf("Charge %d within budget failed: %v", i, err)
		}
	}
	err := c.Charge(1)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Charge over budget = %v, want ErrBudgetExhausted", err)
	}
	if got := c.Spent(); got != 11 {
		t.Fatalf("Spent = %d, want 11", got)
	}
	// The trip counter latches once per solve, not per check.
	_ = c.Charge(1)
	_ = c.Err()
	if got := met.Counter(obs.MRobustBudgetHits).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MRobustBudgetHits, got)
	}
}

func TestControlDeadline(t *testing.T) {
	met := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	c := NewControl(ctx, 0, met)
	if err := c.Err(); err != nil {
		t.Fatalf("Err before deadline = %v", err)
	}
	<-ctx.Done()
	err := c.Err()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after deadline = %v", err)
	}
	_ = c.Err()
	if got := met.Counter(obs.MRobustDeadlineHits).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MRobustDeadlineHits, got)
	}
}

func TestControlHardCancelCause(t *testing.T) {
	why := fmt.Errorf("operator hit ^C")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(why)
	c := NewControl(ctx, 0, nil)
	err := c.Err()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, why) {
		t.Fatalf("Err after cancel-with-cause = %v, want ErrCanceled wrapping cause", err)
	}
	// A plain cancel must not count as a deadline hit.
	met := obs.NewRegistry()
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_ = NewControl(ctx2, 0, met).Err()
	if got := met.Counter(obs.MRobustDeadlineHits).Value(); got != 0 {
		t.Fatalf("plain cancel counted as deadline hit")
	}
}

func TestCheckFuncStampsPhase(t *testing.T) {
	c := NewControl(context.Background(), 5, nil)
	check := c.CheckFunc("lp")
	if err := check(5); err != nil {
		t.Fatalf("check within budget = %v", err)
	}
	err := check(1)
	var re *Error
	if !errors.As(err, &re) || re.Phase != "lp" {
		t.Fatalf("CheckFunc did not stamp phase: %v", err)
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("CheckFunc lost the kind: %v", err)
	}
}

func TestChildSharesBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	c := NewControl(ctx, 100, nil)
	child, stop := c.Child(0.5)
	defer stop()
	if child == c {
		t.Fatalf("Child(0.5) with a live deadline returned the parent")
	}
	rem, ok := child.Remaining()
	if !ok || rem > 31*time.Minute {
		t.Fatalf("child deadline not sliced: rem=%v ok=%v", rem, ok)
	}
	if err := child.Charge(80); err != nil {
		t.Fatalf("child charge: %v", err)
	}
	// The parent sees the child's spending: shared accounting.
	if err := c.Charge(30); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("parent did not observe child spending: %v", err)
	}
	// No deadline to slice → the parent itself comes back.
	flat := NewControl(context.Background(), 10, nil)
	same, stop2 := flat.Child(0.5)
	defer stop2()
	if same != flat {
		t.Fatalf("Child without a deadline should return the parent")
	}
}

func TestRecoverTo(t *testing.T) {
	met := obs.NewRegistry()
	run := func() (err error) {
		defer RecoverTo(&err, "pool", 7, met)
		panic("index out of range [40] with length 12")
	}
	err := run()
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("recovered error = %v, want ErrPanic", err)
	}
	var re *Error
	if !errors.As(err, &re) || re.Phase != "pool" || re.Component != 7 {
		t.Fatalf("panic provenance lost: %+v", re)
	}
	if !strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("panic value lost: %v", err)
	}
	if got := met.Counter(obs.MRobustPanics).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MRobustPanics, got)
	}
	// No panic → no error overwrite.
	clean := func() (err error) {
		defer RecoverTo(&err, "pool", 7, met)
		return nil
	}
	if err := clean(); err != nil {
		t.Fatalf("RecoverTo fabricated an error: %v", err)
	}
}

func TestRunLadderFirstRungAnswers(t *testing.T) {
	met := obs.NewRegistry()
	res, err := RunLadder(nil, met, -1, []Rung{
		{Name: "exact", Run: func(c *Control) (any, error) { return 42, nil }},
		{Name: "lp", Run: func(c *Control) (any, error) { t.Fatal("lp rung ran"); return nil, nil }},
	})
	if err != nil {
		t.Fatalf("RunLadder = %v", err)
	}
	if res.Rung != "exact" || res.Value.(int) != 42 || len(res.Attempts) != 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if got := met.CounterWith(obs.MRobustRungAnswers, "rung", "exact").Value(); got != 1 {
		t.Fatalf("rung answer counter = %d, want 1", got)
	}
}

func TestRunLadderDegrades(t *testing.T) {
	met := obs.NewRegistry()
	res, err := RunLadder(nil, met, 2, []Rung{
		{Name: "exact", Run: func(c *Control) (any, error) {
			return nil, Errf(ErrCanceled, "exact", -1, context.DeadlineExceeded)
		}},
		{Name: "lp", Run: func(c *Control) (any, error) { panic("singular basis") }},
		{Name: "heur", Run: func(c *Control) (any, error) { return "schedule", nil }},
	})
	if err != nil {
		t.Fatalf("RunLadder = %v", err)
	}
	if res.Rung != "heur" || len(res.Attempts) != 2 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.Attempts[0].Rung != "exact" || res.Attempts[0].Reason != "deadline" {
		t.Fatalf("attempt 0 = %+v", res.Attempts[0])
	}
	if res.Attempts[1].Rung != "lp" || res.Attempts[1].Reason != "panic" {
		t.Fatalf("attempt 1 = %+v", res.Attempts[1])
	}
	if got := met.CounterWith(obs.MRobustFallback, "rung", "exact:deadline").Value(); got != 1 {
		t.Fatalf("fallback counter exact:deadline = %d", got)
	}
	if got := met.CounterWith(obs.MRobustFallback, "rung", "lp:panic").Value(); got != 1 {
		t.Fatalf("fallback counter lp:panic = %d", got)
	}
	if got := met.Counter(obs.MRobustPanics).Value(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
}

func TestRunLadderLastRungFailure(t *testing.T) {
	boom := Errf(ErrInfeasible, "mm", -1, nil)
	_, err := RunLadder(nil, nil, 5, []Rung{
		{Name: "exact", Run: func(c *Control) (any, error) { return nil, Errf(ErrNumeric, "lp", -1, nil) }},
		{Name: "heur", Run: func(c *Control) (any, error) { return nil, boom }},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("ladder error = %v, want last rung's ErrInfeasible", err)
	}
	var re *Error
	if !errors.As(err, &re) || re.Component != 5 {
		t.Fatalf("ladder error missing component: %v", err)
	}
}

func TestRunLadderHardCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewControl(ctx, 0, nil)
	ran := false
	_, err := RunLadder(c, nil, -1, []Rung{
		{Name: "exact", Run: func(child *Control) (any, error) { return nil, child.Err() }},
		{Name: "heur", Run: func(child *Control) (any, error) { ran = true; return "x", nil }},
	})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("hard cancel error = %v", err)
	}
	if ran {
		t.Fatalf("a rung ran after the caller canceled; degradation must not outlive the caller")
	}
}

func TestRunLadderDeadlineStillDegrades(t *testing.T) {
	// An expired *deadline* (unlike a hard cancel) must still let the
	// bottom rung answer: that is the entire point of the ladder.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	c := NewControl(ctx, 0, nil)
	res, err := RunLadder(c, nil, -1, []Rung{
		{Name: "exact", Run: func(child *Control) (any, error) { return nil, child.Err() }},
		{Name: "heur", Run: func(child *Control) (any, error) { return "fallback", nil }},
	})
	if err != nil {
		t.Fatalf("RunLadder after deadline = %v", err)
	}
	if res.Rung != "heur" || res.Value.(string) != "fallback" {
		t.Fatalf("unexpected result: %+v", res)
	}
	if res.Attempts[0].Reason != "deadline" {
		t.Fatalf("attempt reason = %q, want deadline", res.Attempts[0].Reason)
	}
}
