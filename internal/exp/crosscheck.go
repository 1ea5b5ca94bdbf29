package exp

import (
	"fmt"

	"calib/internal/bounds"
	"calib/internal/core"
	"calib/internal/exact"
	"calib/internal/heur"
	"calib/internal/ise"
	"calib/internal/replay"
)

// CrossCheck runs every solver and oracle in the module on one
// instance and verifies the full consistency web:
//
//   - every produced schedule passes the validator AND the independent
//     replay simulator;
//   - lower bound <= exact optimum (when computable);
//   - exact optimum <= every schedule that fits on inst.M machines:
//     the lazy heuristic (also run capped at inst.M), the pipeline,
//     and the planted witness, when one is supplied. OPT is optimal
//     on inst.M machines only; lazy grows machines as needed and the
//     pipeline is machine-augmented, so on more machines either may
//     legitimately use fewer calibrations than OPT.
//
// It returns a one-line summary, or an error naming the first broken
// relation. Tests and the fuzzing harness drive it with random
// instances; it is exported from exp so cmd tooling can offer it too.
func CrossCheck(inst *ise.Instance, witness *ise.Schedule) (string, error) {
	if err := inst.Validate(); err != nil {
		return "", fmt.Errorf("instance invalid: %w", err)
	}
	check := func(name string, s *ise.Schedule) error {
		if err := ise.Validate(inst, s); err != nil {
			return fmt.Errorf("%s: validator rejected: %w", name, err)
		}
		if rep := replay.Replay(inst, s); !rep.Feasible {
			return fmt.Errorf("%s: simulator rejected: %s", name, rep.Violation)
		}
		return nil
	}
	lb := bounds.Calibrations(inst)

	if witness != nil {
		if err := check("witness", witness); err != nil {
			return "", err
		}
	}

	pipe, err := core.Solve(inst, core.Options{})
	if err != nil {
		return "", fmt.Errorf("pipeline: %w", err)
	}
	if err := check("pipeline", pipe.Schedule); err != nil {
		return "", err
	}
	if lb > pipe.Schedule.NumCalibrations() {
		return "", fmt.Errorf("lower bound %d exceeds pipeline %d", lb, pipe.Schedule.NumCalibrations())
	}

	lazy, err := heur.Lazy(inst, heur.Options{})
	if err != nil {
		return "", fmt.Errorf("lazy: %w", err)
	}
	if err := check("lazy", lazy); err != nil {
		return "", err
	}
	if lb > lazy.NumCalibrations() {
		return "", fmt.Errorf("lower bound %d exceeds lazy %d", lb, lazy.NumCalibrations())
	}

	optStr := "opt=?"
	if inst.N() <= 7 {
		opt, err := exact.Solve(inst, exact.Options{WarmStart: true})
		if err != nil {
			return "", fmt.Errorf("exact: %w (but pipeline found a feasible schedule)", err)
		}
		if err := check("exact", opt.Schedule); err != nil {
			return "", err
		}
		if lb > opt.Calibrations {
			return "", fmt.Errorf("lower bound %d exceeds OPT %d", lb, opt.Calibrations)
		}
		if opt.Proven {
			capped, err := heur.Lazy(inst, heur.Options{MaxMachines: inst.M})
			if err == nil {
				if err := check("lazy capped", capped); err != nil {
					return "", err
				}
			}
			for _, other := range []struct {
				name  string
				sched *ise.Schedule
			}{{"lazy", lazy}, {"lazy capped", capped}, {"pipeline", pipe.Schedule}, {"witness", witness}} {
				if other.sched == nil || other.sched.MachinesUsed() > inst.M {
					continue
				}
				if opt.Calibrations > other.sched.NumCalibrations() {
					return "", fmt.Errorf("OPT %d exceeds %s %d", opt.Calibrations, other.name, other.sched.NumCalibrations())
				}
			}
		}
		optStr = fmt.Sprintf("opt=%d", opt.Calibrations)
	}
	return fmt.Sprintf("n=%d lb=%d %s lazy=%d pipeline=%d",
		inst.N(), lb, optStr, lazy.NumCalibrations(), pipe.Schedule.NumCalibrations()), nil
}
