package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"calib/internal/exact"
	"calib/internal/ise"
	"calib/internal/obs"
	"calib/internal/robust"
	"calib/internal/workload"
)

// fallbackCount sums robust_fallback_total across its rung labels.
func fallbackCount(met *obs.Registry) int64 {
	var n int64
	for _, c := range met.Snapshot().Counters {
		if c.Name == obs.MRobustFallback {
			n += c.Value
		}
	}
	return n
}

// TestPoolPanicContained: a panic inside one component's solve must
// surface as a robust.ErrPanic taxonomy error carrying the component
// index — and must not leak pool workers (the pre-fix pool deadlocked
// the feeder and stranded every goroutine when a worker died). Solve's
// decomposed path and SolveRobust share the pool; both are driven.
func TestPoolPanicContained(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst, _ := workload.Clustered(rng, 3, 5, 2, 10)
	testHookComponent = func(component int) {
		if component == 1 {
			panic("injected component failure")
		}
	}
	defer func() { testHookComponent = nil }()
	for _, tc := range []struct {
		name  string
		solve func() error
	}{
		{"Solve", func() error {
			_, err := Solve(inst, Options{Parallelism: 2})
			return err
		}},
		{"SolveRobust", func() error {
			_, err := SolveRobust(inst, Options{Parallelism: 2, Metrics: obs.NewRegistry()})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			done := make(chan error, 1)
			go func() { done <- tc.solve() }()
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("pool deadlocked after component panic")
			}
			if err == nil {
				t.Fatal("expected an error from the panicking component")
			}
			if !errors.Is(err, robust.ErrPanic) {
				t.Fatalf("error %v is not robust.ErrPanic", err)
			}
			var re *robust.Error
			if !errors.As(err, &re) || re.Component != 1 {
				t.Fatalf("error %v does not carry component 1", err)
			}
			// The other components' workers must have drained and exited.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("goroutines leaked: %d before, %d after", before, n)
			}
		})
	}
}

// TestSolveRobustExactSmall: with no deadline pressure every small
// component is answered by the exact rung, the merged schedule is
// feasible, and the bound certificates are exact and consistent.
func TestSolveRobustExactSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst, _ := workload.Clustered(rng, 3, 4, 1, 10)
	met := obs.NewRegistry()
	res, err := SolveRobust(inst, Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if err := ise.Validate(inst, res.Schedule); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if !res.Exact || res.Degraded {
		t.Fatalf("expected exact undegraded answer, got Exact=%v Degraded=%v", res.Exact, res.Degraded)
	}
	for _, rep := range res.Reports {
		if rep.Rung != "exact" {
			t.Fatalf("component %d answered by %q, want exact", rep.Component, rep.Rung)
		}
	}
	if float64(res.Schedule.NumCalibrations()) != res.LowerBound {
		t.Fatalf("exact answer but bounds differ: upper %d, lower %v", res.Schedule.NumCalibrations(), res.LowerBound)
	}
	if n := fallbackCount(met); n != 0 {
		t.Fatalf("robust_fallback_total = %d on an undegraded solve", n)
	}
	// Cross-check the certificate against the global exact optimum
	// (component optima sum exactly: no calibration spans a gap).
	ex, err := exact.Solve(inst, exact.Options{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Proven || ex.Calibrations != res.Schedule.NumCalibrations() {
		t.Fatalf("SolveRobust says %d calibrations, exact oracle says %d (proven=%v)",
			res.Schedule.NumCalibrations(), ex.Calibrations, ex.Proven)
	}
}

// TestSolveRobustDegradesOnExpiredDeadline: with the deadline already
// gone, every rung under control fails fast and the uncontrolled heur
// rung still delivers a feasible schedule; the fallbacks are visible in
// robust_fallback_total.
func TestSolveRobustDegradesOnExpiredDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inst, _ := workload.Clustered(rng, 3, 5, 2, 10)
	met := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // deadline definitely expired
	ctl := robust.NewControl(ctx, 0, met)
	res, err := SolveRobust(inst, Options{Metrics: met, Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	if err := ise.Validate(inst, res.Schedule); err != nil {
		t.Fatalf("degraded schedule infeasible: %v", err)
	}
	if !res.Degraded || res.Exact {
		t.Fatalf("expected degraded answer, got Degraded=%v Exact=%v", res.Degraded, res.Exact)
	}
	for _, rep := range res.Reports {
		if rep.Rung != "heur" {
			t.Fatalf("component %d answered by %q under an expired deadline", rep.Component, rep.Rung)
		}
	}
	if n := fallbackCount(met); n == 0 {
		t.Fatal("robust_fallback_total = 0 despite degradation")
	}
}

// TestSolveRobustBudgetDegrades: an exhausted work budget (no
// deadline) must degrade the same way — the heur rung is free and
// still answers.
func TestSolveRobustBudgetDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inst, _ := workload.Clustered(rng, 2, 20, 2, 10)
	met := obs.NewRegistry()
	ctl := robust.NewControl(context.Background(), 1, met) // one work unit total
	// Components past the exact rung's gate: tiny searches can finish
	// inside one check cadence without ever touching the budget; the
	// LP rung charges every pivot and trips immediately.
	res, err := SolveRobust(inst, Options{Metrics: met, Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range res.Reports {
		if rep.Jobs <= exactJobs {
			t.Fatalf("component %d has %d jobs, within the exact rung's gate", rep.Component, rep.Jobs)
		}
	}
	if err := ise.Validate(inst, res.Schedule); err != nil {
		t.Fatalf("degraded schedule infeasible: %v", err)
	}
	if !res.Degraded {
		t.Fatal("expected budget exhaustion to degrade")
	}
	var sawBudget bool
	for _, rep := range res.Reports {
		for _, a := range rep.Attempts {
			if errors.Is(a.Err, robust.ErrBudgetExhausted) {
				sawBudget = true
			}
		}
	}
	if !sawBudget {
		t.Fatal("no attempt failed with ErrBudgetExhausted")
	}
}

// TestSolveRobustHardCancelAborts: a canceled caller context must
// abort the whole solve with ErrCanceled — degradation serves
// deadlines, not callers that walked away.
func TestSolveRobustHardCancelAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	inst, _ := workload.Clustered(rng, 2, 5, 2, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctl := robust.NewControl(ctx, 0, obs.NewRegistry())
	_, err := SolveRobust(inst, Options{Control: ctl})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, robust.ErrCanceled) {
		t.Fatalf("error %v is not robust.ErrCanceled", err)
	}
}

// TestSolveRobustParallelDeterministic: the robust merge must be
// deterministic across worker counts when nothing degrades.
func TestSolveRobustParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst, _ := workload.Clustered(rng, 4, 4, 1, 10)
	var want *ise.Schedule
	for _, par := range []int{1, 2, 8} {
		res, err := SolveRobust(inst, Options{Parallelism: par, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Schedule.Clone()
		got.SortCanonical()
		if want == nil {
			want = got
			continue
		}
		if len(got.Calibrations) != len(want.Calibrations) || len(got.Placements) != len(want.Placements) {
			t.Fatalf("par %d: schedule shape changed", par)
		}
		for i := range got.Calibrations {
			if got.Calibrations[i] != want.Calibrations[i] {
				t.Fatalf("par %d: calibration %d differs", par, i)
			}
		}
		for i := range got.Placements {
			if got.Placements[i] != want.Placements[i] {
				t.Fatalf("par %d: placement %d differs", par, i)
			}
		}
	}
}
