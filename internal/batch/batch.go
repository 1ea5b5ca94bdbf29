// Package batch evaluates solver policies over collections of ISE
// instances with a worker pool — the bulk-evaluation layer behind
// cmd/isebatch. Results are deterministic regardless of worker count:
// rows come back in (instance, policy) order.
package batch

import (
	"context"
	"fmt"
	"sync"
	"time"

	"calib/internal/bounds"
	"calib/internal/core"
	"calib/internal/fault"
	"calib/internal/heur"
	"calib/internal/improve"
	"calib/internal/ise"
	"calib/internal/obs"
	"calib/internal/replay"
	"calib/internal/robust"
	"calib/internal/unitise"
)

// Policy is a named solver configuration.
type Policy struct {
	Name string
	// Solve produces a schedule for the instance (or an error, which
	// is recorded per row rather than aborting the batch).
	Solve func(*ise.Instance) (*ise.Schedule, error)
}

// Limits bounds each individual policy solve of a batch: a fresh
// robust.Control (wall clock and/or work budget) is built per solve,
// so one pathological instance cannot eat the whole batch's time. The
// zero value means unlimited.
type Limits struct {
	// Timeout is the wall-clock cap per solve (0 = none).
	Timeout time.Duration
	// Budget is the work cap per solve in solver units (0 = none).
	Budget int64
	// Metrics receives the robust_* trip counters (nil = process
	// default).
	Metrics *obs.Registry
	// Fault, when non-nil, arms deterministic fault injection in the
	// core-pipeline policies (see internal/fault); nil disables it at
	// zero cost.
	Fault *fault.Injector
}

// control builds a per-solve control; both returns are no-ops for the
// zero Limits.
func (l Limits) control() (*robust.Control, context.CancelFunc) {
	return robust.NewTimedControl(nil, l.Timeout, l.Budget, l.Metrics)
}

// DefaultPolicies returns the standard comparison set: the paper's
// pipeline (paper-faithful and trimmed+compacted), the lazy heuristic,
// and the always-calibrated straw man, with no per-solve limits.
func DefaultPolicies() []Policy { return DefaultPoliciesCtl(Limits{}) }

// DefaultPoliciesCtl is DefaultPolicies under per-solve limits: the
// LP-pipeline policies abort (an error row) when a limit trips, and a
// "robust" policy — the exact->LP->heuristic degradation ladder — is
// appended, which instead degrades and still answers.
func DefaultPoliciesCtl(l Limits) []Policy {
	return []Policy{
		{"paper", func(inst *ise.Instance) (*ise.Schedule, error) {
			ctl, cancel := l.control()
			defer cancel()
			r, err := core.Solve(inst, core.Options{Control: ctl, Fault: l.Fault})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		}},
		{"paper+trim+compact", func(inst *ise.Instance) (*ise.Schedule, error) {
			ctl, cancel := l.control()
			defer cancel()
			r, err := core.Solve(inst, core.Options{TrimIdle: true, Control: ctl, Fault: l.Fault})
			if err != nil {
				return nil, err
			}
			return ise.Compact(inst, r.Schedule)
		}},
		{"paper+improve", func(inst *ise.Instance) (*ise.Schedule, error) {
			ctl, cancel := l.control()
			defer cancel()
			r, err := core.Solve(inst, core.Options{Control: ctl, Fault: l.Fault})
			if err != nil {
				return nil, err
			}
			ir, err := improve.Run(inst, r.Schedule)
			if err != nil {
				return nil, err
			}
			return ise.Compact(inst, ir.Schedule)
		}},
		{"robust", func(inst *ise.Instance) (*ise.Schedule, error) {
			ctl, cancel := l.control()
			defer cancel()
			r, err := core.SolveRobust(inst, core.Options{Control: ctl, Fault: l.Fault})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		}},
		{"lazy", func(inst *ise.Instance) (*ise.Schedule, error) {
			return heur.Lazy(inst, heur.Options{})
		}},
		{"naive-grid", unitise.NaiveGrid},
	}
}

// Item is one named instance of a batch.
type Item struct {
	Name     string
	Instance *ise.Instance
}

// Row is the outcome of one (instance, policy) evaluation.
type Row struct {
	Item         string
	Policy       string
	N            int
	Calibrations int
	Machines     int
	LowerBound   int
	Utilization  float64
	Millis       float64
	Err          string
	// Deduped marks a row replayed from a canonical twin's solve
	// (RunDedup) rather than solved itself; Millis is the twin's.
	Deduped bool
}

// Report is a completed batch.
type Report struct {
	Rows []Row
}

// Run evaluates every policy on every item using `workers` goroutines
// (minimum 1). Every produced schedule is validated and replayed; an
// invalid schedule is reported as an error row, never silently
// accepted.
func Run(items []Item, policies []Policy, workers int) *Report {
	if workers < 1 {
		workers = 1
	}
	type task struct{ item, pol int }
	tasks := make(chan task)
	rows := make([]Row, len(items)*len(policies))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				rows[tk.item*len(policies)+tk.pol] = solveRow(items[tk.item], policies[tk.pol])
			}
		}()
	}
	for i := range items {
		for p := range policies {
			tasks <- task{i, p}
		}
	}
	close(tasks)
	wg.Wait()
	return &Report{Rows: rows}
}

// solveRow evaluates one (instance, policy) pair: solve, validate,
// replay, time. Errors and infeasibility are recorded in the row, not
// returned — a batch always finishes.
func solveRow(it Item, pol Policy) Row {
	row := Row{Item: it.Name, Policy: pol.Name, N: it.Instance.N(),
		LowerBound: bounds.Calibrations(it.Instance)}
	t0 := time.Now()
	sched, err := pol.Solve(it.Instance)
	row.Millis = float64(time.Since(t0).Microseconds()) / 1000
	switch {
	case err != nil:
		row.Err = err.Error()
	default:
		if verr := ise.Validate(it.Instance, sched); verr != nil {
			row.Err = fmt.Sprintf("INFEASIBLE: %v", verr)
			break
		}
		rep := replay.Replay(it.Instance, sched)
		row.Calibrations = sched.NumCalibrations()
		row.Machines = sched.MachinesUsed()
		row.Utilization = rep.Utilization
	}
	return row
}

// Best returns, per item, the policy with the fewest calibrations
// (ignoring errored rows); ties keep the earlier policy.
func (r *Report) Best() map[string]Row {
	best := map[string]Row{}
	for _, row := range r.Rows {
		if row.Err != "" {
			continue
		}
		cur, ok := best[row.Item]
		if !ok || row.Calibrations < cur.Calibrations {
			best[row.Item] = row
		}
	}
	return best
}
