package calib_test

// Cancellation conformance: every exported solve entry point must
// return within 100ms of its context being canceled, even deep inside
// a pathological instance's hot loop (LP build and pivots,
// branch-and-bound nodes). The per-engine check cadences (every 64
// rows of the float64 tableau's build and every pivot for the
// float64/rational engines, every 512 nodes for the searches) are
// sized so this bound holds comfortably under -race: over 20 -race
// runs on a 2-vCPU Xeon VM the slowest case returned 16ms after its
// cancel.

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"calib"
	"calib/internal/exact"
	"calib/internal/ise"
	"calib/internal/mm"
	"calib/internal/obs"
	"calib/internal/robust"
	"calib/internal/tise"
	"calib/internal/workload"
)

// cancelLatencyBound is the conformance bound: time from cancel() to
// the solve entry point returning.
const cancelLatencyBound = 100 * time.Millisecond

// cancelAfter is how long each case runs before it is canceled. It is
// at most a third of the fastest case's uncanceled time (SolveRobust on
// hardLong, 37-61ms over 14 runs on a 2-vCPU Xeon VM without -race,
// and 0.57-0.74s with it), so every case is still mid-solve when the
// cancel lands, also on a machine a few times faster.
const cancelAfter = 12 * time.Millisecond

// hardInstances builds instances big enough that each solver is still
// mid-search when the cancel lands.
func hardLong(tb testing.TB) *ise.Instance {
	tb.Helper()
	rng := rand.New(rand.NewSource(31))
	inst, _ := workload.Long(rng, 80, 2, 10)
	return inst
}

func hardMixed(tb testing.TB) *ise.Instance {
	tb.Helper()
	rng := rand.New(rand.NewSource(37))
	inst, _ := workload.Mixed(rng, 26, 1, 10, 0.5)
	return inst
}

// hardShort is a crafted short-window pack: 20 jobs crammed into
// near-identical 13-tick windows, so the MM search must refute several
// infeasible machine counts by exhausting deep orderings before it
// finds the minimum.
func hardShort(tb testing.TB) *ise.Instance {
	tb.Helper()
	inst := ise.NewInstance(10, 1)
	for j := 0; j < 20; j++ {
		p := ise.Time(3 + j%3)
		inst.AddJob(ise.Time(j%2), 13+ise.Time(j%3), p)
	}
	return inst
}

func TestCancelConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"calib.Solve/dense", func(ctx context.Context) error {
			_, err := calib.Solve(hardLong(t), &calib.Options{Context: ctx})
			return err
		}},
		{"calib.SolveRobust", func(ctx context.Context) error {
			// A hard cancel (not a deadline) must abort the ladder, not
			// degrade through it.
			_, err := calib.SolveRobust(hardLong(t), &calib.Options{Context: ctx})
			return err
		}},
		{"tise.Solve", func(ctx context.Context) error {
			ctl := robust.NewControl(ctx, 0, obs.NewRegistry())
			_, err := tise.Solve(hardLong(t), tise.Options{Control: ctl})
			return err
		}},
		{"exact.Solve", func(ctx context.Context) error {
			ctl := robust.NewControl(ctx, 0, obs.NewRegistry())
			_, err := exact.Solve(hardMixed(t), exact.Options{
				MaxNodes: 1 << 30, Control: ctl,
			})
			return err
		}},
		{"mm.Exact", func(ctx context.Context) error {
			ctl := robust.NewControl(ctx, 0, obs.NewRegistry())
			_, err := mm.Exact{Control: ctl}.Solve(hardShort(t))
			return err
		}},
	}
	for _, tc := range cases {
		tc := tc
		// Deliberately not parallel: the latency bound is measured per
		// solver, and five concurrent hot loops contending for cores
		// (especially under -race) would measure the scheduler instead.
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- tc.run(ctx) }()
			// Let the solver reach its hot loop before pulling the plug.
			select {
			case err := <-done:
				// Finished before the cancel: the latency bound would be
				// met vacuously, so the case checks nothing.
				t.Errorf("solve finished before cancel (err=%v); instance too easy to exercise latency", err)
				return
			case <-time.After(cancelAfter):
			}
			t0 := time.Now()
			cancel()
			select {
			case err := <-done:
				d := time.Since(t0)
				if d > cancelLatencyBound {
					t.Errorf("returned %v after cancel, want <= %v", d, cancelLatencyBound)
				}
				t.Logf("returned %v after cancel", d)
				if err == nil {
					t.Error("canceled solve returned nil error")
				} else if !errors.Is(err, context.Canceled) {
					t.Errorf("error %v does not wrap context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("solve did not return within 10s of cancel")
			}
		})
	}
}

// TestBudgetConformance: the work budget must stop a solve after a
// bounded amount of extra work, with the taxonomy error surfaced
// through the facade.
func TestBudgetConformance(t *testing.T) {
	_, err := calib.Solve(hardLong(t), &calib.Options{Budget: 100})
	if err == nil {
		t.Fatal("expected budget exhaustion")
	}
	if !errors.Is(err, calib.ErrBudget) {
		t.Fatalf("error %v is not ErrBudget", err)
	}
}

// TestTimeoutFacade: Options.Timeout alone (no caller context) must
// abort a plain Solve with ErrDeadline, which also matches ErrCanceled
// classification via the taxonomy.
func TestTimeoutFacade(t *testing.T) {
	// An already-expired timeout makes the outcome deterministic: the
	// first control check in any phase trips it.
	_, err := calib.Solve(hardMixed(t), &calib.Options{
		MMBox: calib.MMExact, Timeout: time.Nanosecond,
	})
	if err == nil {
		t.Skip("instance solved inside the timeout on this machine")
	}
	if !errors.Is(err, calib.ErrDeadline) {
		t.Fatalf("error %v is not ErrDeadline", err)
	}
}
