package robust

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"calib/internal/obs"
)

// Control carries a solve's cancellation context and work budget
// through the pipeline. The zero cost of the disabled path is a hard
// requirement (the LP pivot loop checks it): every method is nil-safe
// and a nil *Control means "no limits", so option structs thread it
// without allocation or branching at the call sites.
//
// Work is measured in abstract units — one simplex pivot or one
// branch-and-bound node each charge one unit — so a budget bounds CPU
// roughly machine-independently where a wall-clock deadline does not.
//
// Child controls (see Child) share the parent's budget accounting:
// the ladder slices deadlines per rung, but work spent on an
// abandoned rung still counts against the solve's total.
type Control struct {
	ctx    context.Context
	budget int64
	spent  *atomic.Int64
	met    *obs.Registry
	// tripped latches the first limit hit so the deadline/budget
	// counters count solves, not checks.
	tripped *atomic.Bool
}

// NewControl builds a Control from a context and a work budget
// (<= 0 means unlimited). It returns nil — the free "no limits"
// control — when ctx carries no cancellation and no budget is set.
// met receives the robust_* trip counters; nil disables them.
func NewControl(ctx context.Context, budget int64, met *obs.Registry) *Control {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && budget <= 0 {
		return nil
	}
	return &Control{
		ctx:     ctx,
		budget:  budget,
		spent:   new(atomic.Int64),
		met:     met,
		tripped: new(atomic.Bool),
	}
}

// NewTimedControl is NewControl for one solve under a wall-clock
// timeout (<= 0 means none) layered on ctx (nil means
// context.Background). met nil means the process default registry.
// The returned cancel must be called when the solve finishes; both
// returns are no-ops when no limit is set.
func NewTimedControl(ctx context.Context, timeout time.Duration, budget int64, met *obs.Registry) (*Control, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	if met == nil {
		met = obs.Default()
	}
	return NewControl(ctx, budget, met), cancel
}

// Context returns the control's context (context.Background for nil).
func (c *Control) Context() context.Context {
	if c == nil {
		return context.Background()
	}
	return c.ctx
}

// Spent returns the work units charged so far.
func (c *Control) Spent() int64 {
	if c == nil {
		return 0
	}
	return c.spent.Load()
}

// Remaining returns the time left until the deadline; ok is false when
// no deadline is set.
func (c *Control) Remaining() (time.Duration, bool) {
	if c == nil {
		return 0, false
	}
	dl, ok := c.ctx.Deadline()
	if !ok {
		return 0, false
	}
	return time.Until(dl), true
}

// Charge adds n work units and reports the first limit hit as a
// taxonomy error (nil while within limits). It is the hot-loop check:
// one atomic add, one atomic load, and a context Err poll.
func (c *Control) Charge(n int64) error {
	if c == nil {
		return nil
	}
	if c.budget > 0 && c.spent.Add(n) > c.budget {
		return c.trip(&Error{Kind: ErrBudgetExhausted, Component: -1})
	}
	if err := c.ctx.Err(); err != nil {
		return c.trip(&Error{Kind: ErrCanceled, Component: -1, Err: cause(c.ctx, err)})
	}
	return nil
}

// Err is Charge(0): a pure limit check that spends nothing.
func (c *Control) Err() error { return c.Charge(0) }

// trip records the first limit hit in the metrics and returns e.
func (c *Control) trip(e *Error) error {
	if c.tripped.CompareAndSwap(false, true) {
		if e.Kind == ErrBudgetExhausted {
			c.met.Counter(obs.MRobustBudgetHits).Inc()
		} else if errors.Is(e.Err, context.DeadlineExceeded) {
			c.met.Counter(obs.MRobustDeadlineHits).Inc()
		}
	}
	return e
}

// cause prefers context.Cause's richer error when it differs from the
// plain Err (e.g. a WithCancelCause reason).
func cause(ctx context.Context, err error) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return err
}

// CheckFunc returns the per-phase hot-loop hook handed to the LP and
// search engines: it charges the given work and stamps failures with
// the phase. A nil control yields a nil func, which the engines treat
// as "never check" at zero cost.
func (c *Control) CheckFunc(phase string) func(work int) error {
	if c == nil {
		return nil
	}
	return func(work int) error {
		err := c.Charge(int64(work))
		if err == nil {
			return nil
		}
		var re *Error
		if errors.As(err, &re) && re.Phase == "" {
			return &Error{Kind: re.Kind, Phase: phase, Component: re.Component, Err: re.Err}
		}
		return err
	}
}

// ErrPhase is Err with phase provenance stamped on any failure.
func (c *Control) ErrPhase(phase string) error {
	if c == nil {
		return nil
	}
	return c.CheckFunc(phase)(0)
}

// Child derives a control whose deadline is at most frac of the
// parent's remaining time (frac <= 0 or no parent deadline keeps the
// parent's deadline). Budget accounting is shared with the parent.
// The cancel func must be called when the child's phase ends.
func (c *Control) Child(frac float64) (*Control, context.CancelFunc) {
	if c == nil {
		return nil, func() {}
	}
	rem, ok := c.Remaining()
	if !ok || frac <= 0 || frac >= 1 {
		return c, func() {}
	}
	slice := time.Duration(float64(rem) * frac)
	if slice < time.Millisecond {
		slice = time.Millisecond
	}
	ctx, cancel := context.WithTimeout(c.ctx, slice)
	child := &Control{
		ctx:     ctx,
		budget:  c.budget,
		spent:   c.spent,
		met:     c.met,
		tripped: c.tripped,
	}
	return child, cancel
}
