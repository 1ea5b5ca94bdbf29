// Command isesolve reads an ISE instance (JSON) from a file or stdin,
// solves it, validates the result, and writes the schedule (JSON) to
// stdout with a summary on stderr.
//
// Usage:
//
//	isesolve [-box greedy|exact|lp-round]
//	         [-par N] [-trim] [-opt | -lazy | -robust] [-compact]
//	         [-v] [-timeout D] [-budget N] [-trace] [-trace-json FILE]
//	         [-metrics] [-metrics-out FILE] [-pprof addr] [instance.json]
//
// -opt uses the exact branch-and-bound solver (small instances only);
// -lazy uses the practical heuristic; the default is the paper's
// approximation pipeline. -robust runs the degradation ladder
// (exact -> LP -> heuristic per time component), which always returns
// a feasible schedule within -timeout/-budget; those limits also apply
// to the plain pipeline, which instead aborts when they trip (see
// docs/ROBUSTNESS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"calib"
	"calib/internal/cliobs"
	"calib/internal/exp"
	"calib/internal/ise"
	"calib/internal/replay"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "isesolve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("isesolve", flag.ContinueOnError)
	box := fs.String("box", "greedy", "MM black box for short-window jobs: greedy, exact, lp-round")
	par := fs.Int("par", 0, "solve independent time components with up to N concurrent workers")
	trim := fs.Bool("trim", false, "drop idle short-window calibrations (beyond the paper)")
	opt := fs.Bool("opt", false, "solve exactly by branch and bound (small n only)")
	lazy := fs.Bool("lazy", false, "use the practical lazy heuristic instead of the paper's pipeline")
	robustF := fs.Bool("robust", false, "degradation ladder: exact -> LP -> heuristic per time component; always answers within -timeout/-budget")
	compact := fs.Bool("compact", false, "recolor the final schedule onto minimum machines")
	verbose := fs.Bool("v", false, "print LP objective and replay statistics to stderr")
	check := fs.Bool("check", false, "run the full cross-validation web (all solvers + oracles) and print its summary")
	tele := cliobs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := tele.Start("isesolve", stderr); err != nil {
		return err
	}

	r := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	inst, err := ise.ReadInstance(r)
	if err != nil {
		return err
	}

	var sched *calib.Schedule
	switch {
	case (*opt && *lazy) || (*robustF && (*opt || *lazy)):
		return fmt.Errorf("-opt, -lazy and -robust are mutually exclusive")
	case *lazy:
		s, err := calib.SolveLazy(inst, 0)
		if err != nil {
			return err
		}
		sched = s
		fmt.Fprintf(stderr, "lazy heuristic: %d calibrations on %d machines (lower bound %d)\n",
			s.NumCalibrations(), s.MachinesUsed(), calib.LowerBound(inst))
	case *opt:
		s, cals, err := calib.SolveExact(inst, 0)
		if err != nil {
			return err
		}
		sched = s
		fmt.Fprintf(stderr, "exact optimum: %d calibrations\n", cals)
	default:
		opts := &calib.Options{
			TrimIdleCalibrations: *trim, Parallelism: *par,
			Trace: tele.Trace, Metrics: tele.Metrics,
			Timeout: tele.Timeout(), Budget: tele.Budget(),
		}
		switch *box {
		case "greedy":
			opts.MMBox = calib.MMGreedy
		case "exact":
			opts.MMBox = calib.MMExact
		case "lp-round":
			opts.MMBox = calib.MMLPRound
		default:
			return fmt.Errorf("unknown MM box %q", *box)
		}
		if *robustF {
			sol, err := calib.SolveRobust(inst, opts)
			if err != nil {
				return err
			}
			sched = sol.Schedule
			status := "exact"
			if !sol.Exact {
				status = "approximate"
			}
			if sol.Degraded {
				status += ", degraded"
			}
			fmt.Fprintf(stderr, "robust: n=%d  components=%d  calibrations=%d (%s)  lower-bound=%d  ladder-lower=%.3f  machines=%d\n",
				inst.N(), sol.Components, sol.Calibrations, status, sol.LowerBound, sol.LadderLower, sol.MachinesUsed)
			for _, rep := range sol.Reports {
				if len(rep.Attempts) == 0 && !*verbose {
					continue
				}
				fmt.Fprintf(stderr, "  component %d (%d jobs): answered by %q, %d calibrations\n",
					rep.Component, rep.Jobs, rep.Rung, rep.Calibrations)
				for _, a := range rep.Attempts {
					fmt.Fprintf(stderr, "    fell off %q: %s (%v)\n", a.Rung, a.Reason, a.Err)
				}
			}
			break
		}
		sol, err := calib.Solve(inst, opts)
		if err != nil {
			return err
		}
		sched = sol.Schedule
		fmt.Fprintf(stderr, "n=%d (long %d, short %d)  calibrations=%d  lower-bound=%d  machines=%d\n",
			inst.N(), sol.LongJobs, sol.ShortJobs, sol.Calibrations, sol.LowerBound, sol.MachinesUsed)
		if *verbose && sol.LPObjective > 0 {
			fmt.Fprintf(stderr, "long-window LP objective: %.3f\n", sol.LPObjective)
		}
	}
	if *compact {
		c, err := calib.Compact(inst, sched)
		if err != nil {
			return err
		}
		sched = c
	}
	if err := calib.Validate(inst, sched); err != nil {
		return fmt.Errorf("internal error: produced an infeasible schedule: %w", err)
	}
	if *verbose {
		rep := replay.Replay(inst, sched)
		fmt.Fprintf(stderr, "replay: %d jobs completed, utilization %.1f%% (%d busy / %d calibrated ticks)\n",
			rep.JobsCompleted, 100*rep.Utilization, rep.BusyTicks, rep.CalibratedTicks)
	}
	if *check {
		summary, err := exp.CrossCheck(inst, nil)
		if err != nil {
			return fmt.Errorf("cross-check FAILED: %w", err)
		}
		fmt.Fprintf(stderr, "cross-check OK: %s\n", summary)
	}
	if err := tele.Finish(stderr); err != nil {
		return err
	}
	return ise.WriteSchedule(stdout, sched)
}
