package exp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"calib/internal/bounds"
	"calib/internal/core"
	"calib/internal/exact"
	"calib/internal/heur"
	"calib/internal/improve"
	"calib/internal/ise"
	"calib/internal/mm"
	"calib/internal/online"
	"calib/internal/replay"
	"calib/internal/shortwin"
	"calib/internal/tise"
	"calib/internal/unitise"
	"calib/internal/workload"
)

// Config scales the experiment suite.
type Config struct {
	// Trials is the number of random instances per table cell.
	Trials int
	// Quick shrinks sweeps for use inside benchmarks/tests.
	Quick bool
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 5
	}
	return c.Trials
}

// agg accumulates mean/max statistics.
type agg struct {
	sum, max float64
	n        int
}

func (a *agg) add(v float64) {
	a.sum += v
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.n++
}
func (a *agg) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// mustValidate panics on an infeasible schedule — experiments are
// meant to crash loudly if an algorithm ever emits an invalid result.
func mustValidate(inst *ise.Instance, s *ise.Schedule) {
	if err := ise.Validate(inst, s); err != nil {
		panic(fmt.Sprintf("exp: infeasible schedule: %v", err))
	}
}

// T1LongWindow verifies Theorem 12 empirically: the long-window
// algorithm's calibrations never exceed 12x the planted witness (an
// upper bound on C*) and its machines never exceed 18m.
func T1LongWindow(cfg Config) *Table {
	t := NewTable("T1 — long-window algorithm vs Theorem 12 bounds (12*C*, 18m)",
		"m", "cal/mach", "n(mean)", "LP(mean)", "alg(mean)", "witness(mean)",
		"ratio(mean)", "ratio(max)", "bound", "mach(max)", "18m")
	t.Caption = "ratio = alg calibrations / witness calibrations (witness >= OPT ratio)"
	rng := rand.New(rand.NewSource(101))
	ms := []int{1, 2}
	cpms := []int{1, 2, 3}
	if cfg.Quick {
		ms, cpms = []int{1}, []int{1, 2}
	}
	for _, m := range ms {
		for _, cpm := range cpms {
			var n, lpObj, alg, wit, ratio agg
			machMax := 0
			for trial := 0; trial < cfg.trials(); trial++ {
				inst, witness := workload.Planted(rng, workload.PlantedConfig{
					Machines: m, T: 10, CalibrationsPerMachine: cpm,
					Window: workload.LongWindow,
				})
				res, err := tise.Solve(inst, tise.Options{})
				if err != nil {
					panic(err)
				}
				mustValidate(inst, res.Schedule)
				n.add(float64(inst.N()))
				lpObj.add(res.LP.Objective)
				alg.add(float64(res.Schedule.NumCalibrations()))
				wit.add(float64(witness.NumCalibrations()))
				ratio.add(float64(res.Schedule.NumCalibrations()) / float64(witness.NumCalibrations()))
				if u := res.Schedule.MachinesUsed(); u > machMax {
					machMax = u
				}
			}
			t.Add(m, cpm, n.mean(), lpObj.mean(), alg.mean(), wit.mean(),
				ratio.mean(), ratio.max, 12, machMax, 18*m)
		}
	}
	return t
}

// T2SpeedTrade verifies Theorem 14: the machines->speed transformation
// yields at most m machines at speed 36 without increasing
// calibrations.
func T2SpeedTrade(cfg Config) *Table {
	t := NewTable("T2 — machines->speed transformation vs Theorem 14 (m machines, speed 36)",
		"m", "cal/mach", "n(mean)", "tise cals(mean)", "fast cals(mean)", "mach used(max)", "speed")
	rng := rand.New(rand.NewSource(102))
	ms := []int{1, 2}
	if cfg.Quick {
		ms = []int{1}
	}
	for _, m := range ms {
		for _, cpm := range []int{1, 2} {
			var n, mid, fast agg
			machMax := 0
			for trial := 0; trial < cfg.trials(); trial++ {
				inst, _ := workload.Planted(rng, workload.PlantedConfig{
					Machines: m, T: 10, CalibrationsPerMachine: cpm,
					Window: workload.LongWindow,
				})
				res, err := tise.SolveWithSpeed(inst, tise.Options{})
				if err != nil {
					panic(err)
				}
				mustValidate(res.Scaled, res.Schedule)
				if res.Schedule.NumCalibrations() > res.Long.Schedule.NumCalibrations() {
					panic("exp: speed transform increased calibrations (violates Lemma 13)")
				}
				n.add(float64(inst.N()))
				mid.add(float64(res.Long.Schedule.NumCalibrations()))
				fast.add(float64(res.Schedule.NumCalibrations()))
				if u := res.Schedule.MachinesUsed(); u > machMax {
					machMax = u
				}
				if machMax > m {
					panic("exp: speed transform used more than m machines")
				}
			}
			t.Add(m, cpm, n.mean(), mid.mean(), fast.mean(), machMax, 36)
		}
	}
	return t
}

// T3ShortWindow verifies Theorem 20's accounting per MM black box:
// calibrations <= 4*gamma*sum(w_i) and machines <= 3*(maxW0+maxW1),
// and reports the measured ratio against the lower bound.
func T3ShortWindow(cfg Config) *Table {
	t := NewTable("T3 — short-window algorithm vs Theorem 20 accounting, per MM box",
		"box", "m", "n(mean)", "alg(mean)", "LB(mean)", "ratio(mean)", "ratio(max)",
		"4g*sumW(mean)", "mach(max)", "6m")
	t.Caption = "ratio = alg calibrations / bounds.Calibrations lower bound"
	boxes := []mm.Solver{mm.Greedy{}, mm.Exact{}}
	ms := []int{1, 2}
	if cfg.Quick {
		boxes = boxes[:1]
		ms = []int{1}
	}
	for _, box := range boxes {
		rng := rand.New(rand.NewSource(103))
		for _, m := range ms {
			var n, alg, lb, ratio, acct agg
			machMax := 0
			for trial := 0; trial < cfg.trials(); trial++ {
				inst, _ := workload.Planted(rng, workload.PlantedConfig{
					Machines: m, T: 10, CalibrationsPerMachine: 2,
					Window: workload.ShortWindow,
				})
				if _, isExact := box.(mm.Exact); isExact && inst.N() > 10 {
					inst.Jobs = inst.Jobs[:10]
				}
				res, err := shortwin.Solve(inst, shortwin.Options{MM: box})
				if err != nil {
					panic(err)
				}
				mustValidate(inst, res.Schedule)
				sumW := 0
				for _, iv := range res.Intervals {
					sumW += iv.MMMachines
				}
				if res.Schedule.NumCalibrations() > 4*shortwin.Gamma*sumW {
					panic("exp: Lemma 19 accounting violated")
				}
				b := bounds.Calibrations(inst)
				n.add(float64(inst.N()))
				alg.add(float64(res.Schedule.NumCalibrations()))
				lb.add(float64(b))
				if b > 0 {
					ratio.add(float64(res.Schedule.NumCalibrations()) / float64(b))
				}
				acct.add(float64(4 * shortwin.Gamma * sumW))
				if u := res.Schedule.MachinesUsed(); u > machMax {
					machMax = u
				}
			}
			t.Add(box.Name(), m, n.mean(), alg.mean(), lb.mean(),
				ratio.mean(), ratio.max, acct.mean(), machMax, 6*m)
		}
	}
	return t
}

// T4EndToEnd measures the full pipeline (Theorem 1) on mixed
// workloads: against exact OPT when n is small, against the
// combinatorial lower bound otherwise.
func T4EndToEnd(cfg Config) *Table {
	t := NewTable("T4 — full pipeline on mixed workloads (Theorem 1)",
		"n(target)", "oracle", "n(mean)", "alg(mean)", "ref(mean)", "ratio(mean)", "ratio(max)")
	t.Caption = "oracle=OPT uses the exact solver; oracle=LB uses bounds.Calibrations"
	rng := rand.New(rand.NewSource(104))
	targets := []int{6, 16, 30}
	if cfg.Quick {
		targets = []int{6, 12}
	}
	for _, target := range targets {
		var n, alg, ref, ratio agg
		oracle := "LB"
		if target <= 7 {
			oracle = "OPT"
		}
		for trial := 0; trial < cfg.trials(); trial++ {
			inst, _ := workload.Mixed(rng, target, 1+target/16, 10, 0.5)
			if oracle == "OPT" && inst.N() > 7 {
				inst.Jobs = inst.Jobs[:7]
			}
			res, err := core.Solve(inst, core.Options{})
			if err != nil {
				panic(err)
			}
			mustValidate(inst, res.Schedule)
			var refVal int
			if oracle == "OPT" {
				opt, err := exact.Solve(inst, exact.Options{})
				if err != nil {
					panic(err)
				}
				refVal = opt.Calibrations
			} else {
				refVal = bounds.Calibrations(inst)
			}
			n.add(float64(inst.N()))
			alg.add(float64(res.Schedule.NumCalibrations()))
			ref.add(float64(refVal))
			if refVal > 0 {
				ratio.add(float64(res.Schedule.NumCalibrations()) / float64(refVal))
			}
		}
		t.Add(target, oracle, n.mean(), alg.mean(), ref.mean(), ratio.mean(), ratio.max)
	}
	return t
}

// T5UnitBaselines compares, on unit-job instances, the 2013 lazy-
// binning baseline (optimal on one machine), the general algorithm of
// this paper, the naive always-calibrated grid, and exact OPT.
func T5UnitBaselines(cfg Config) *Table {
	t := NewTable("T5 — unit-job instances: prior-work baselines vs the general algorithm",
		"n(mean)", "OPT(mean)", "lazy(mean)", "general(mean)", "naive(mean)",
		"lazy/OPT(max)", "general/OPT(max)", "naive/OPT(mean)")
	rng := rand.New(rand.NewSource(105))
	var n, opt, lazy, gen, naive, lazyR, genR, naiveR agg
	trials := 0
	for trials < cfg.trials()*2 {
		inst, _ := workload.Planted(rng, workload.PlantedConfig{
			Machines: 1, T: 6, CalibrationsPerMachine: 2,
			UnitJobs: true, Fill: 0.5, Window: workload.AnyWindow,
		})
		if inst.N() == 0 || inst.N() > 7 {
			continue
		}
		trials++
		optRes, err := exact.Solve(inst, exact.Options{})
		if err != nil {
			panic(err)
		}
		ls, err := unitise.LazyBinning(inst)
		if err != nil {
			panic(err)
		}
		mustValidate(inst, ls)
		gr, err := core.Solve(inst, core.Options{})
		if err != nil {
			panic(err)
		}
		mustValidate(inst, gr.Schedule)
		ns, err := unitise.NaiveGrid(inst)
		if err != nil {
			panic(err)
		}
		mustValidate(inst, ns)
		o := float64(optRes.Calibrations)
		n.add(float64(inst.N()))
		opt.add(o)
		lazy.add(float64(ls.NumCalibrations()))
		gen.add(float64(gr.Schedule.NumCalibrations()))
		naive.add(float64(ns.NumCalibrations()))
		lazyR.add(float64(ls.NumCalibrations()) / o)
		genR.add(float64(gr.Schedule.NumCalibrations()) / o)
		naiveR.add(float64(ns.NumCalibrations()) / o)
	}
	t.Add(n.mean(), opt.mean(), lazy.mean(), gen.mean(), naive.mean(),
		lazyR.max, genR.max, naiveR.mean())
	return t
}

// T6LPEngines is the LP engine ablation: the served float64 dense
// tableau and exact rational arithmetic on the same TISE relaxations.
// Both must agree on the optimum.
func T6LPEngines(cfg Config) *Table {
	t := NewTable("T6 — LP ablation: engines (dense/rational) on the same TISE relaxations",
		"n", "obj", "|f-r|", "direct ms", "rat ms", "rat/float")
	rng := rand.New(rand.NewSource(106))
	sizes := []int{4, 8, 12}
	if cfg.Quick {
		sizes = []int{4, 8}
	}
	for _, sz := range sizes {
		inst, _ := workload.Long(rng, sz, 1, 10)
		t0 := time.Now()
		fd, err := tise.SolveLP(inst, 3, tise.Float64)
		if err != nil {
			panic(err)
		}
		directMS := time.Since(t0)
		t0 = time.Now()
		r, err := tise.SolveLP(inst, 3, tise.Rational)
		if err != nil {
			panic(err)
		}
		rms := time.Since(t0)
		diff := math.Abs(fd.Objective - r.Objective)
		if diff > 1e-6*(1+fd.Objective) {
			panic("exp: rational optimum differs from dense optimum")
		}
		t.Add(inst.N(), fd.Objective, diff,
			float64(directMS.Microseconds())/1000, float64(rms.Microseconds())/1000,
			float64(rms)/float64(directMS+1))
	}
	return t
}

// T7Crossing measures the crossing-job machinery of Algorithm 5 on
// adversarial workloads, plus the idle-calibration trimming ablation.
func T7Crossing(cfg Config) *Table {
	t := NewTable("T7 — crossing-job overhead and idle-trimming ablation (Algorithm 5)",
		"n", "crossing(mean)", "cals paper(mean)", "cals trimmed(mean)", "saved%")
	rng := rand.New(rand.NewSource(107))
	sizes := []int{6, 12, 20}
	if cfg.Quick {
		sizes = []int{6}
	}
	for _, sz := range sizes {
		var crossing, paper, trimmed agg
		for trial := 0; trial < cfg.trials(); trial++ {
			inst := workload.CrossingAdversarial(rng, sz, 2, 10)
			full, err := shortwin.Solve(inst, shortwin.Options{})
			if err != nil {
				panic(err)
			}
			mustValidate(inst, full.Schedule)
			trim, err := shortwin.Solve(inst, shortwin.Options{TrimIdle: true})
			if err != nil {
				panic(err)
			}
			mustValidate(inst, trim.Schedule)
			cr := 0
			for _, iv := range full.Intervals {
				cr += iv.Crossing
			}
			crossing.add(float64(cr))
			paper.add(float64(full.Schedule.NumCalibrations()))
			trimmed.add(float64(trim.Schedule.NumCalibrations()))
		}
		saved := 100 * (1 - trimmed.mean()/paper.mean())
		t.Add(sz, crossing.mean(), paper.mean(), trimmed.mean(), saved)
	}
	return t
}

// T8Scaling measures wall-clock scaling of the two pipelines.
func T8Scaling(cfg Config) *Table {
	t := NewTable("T8 — wall-clock scaling",
		"pipeline", "n", "ms/solve", "cals")
	rng := rand.New(rand.NewSource(108))
	longSizes := []int{6, 12, 18}
	shortSizes := []int{20, 50, 100}
	if cfg.Quick {
		longSizes, shortSizes = []int{6}, []int{20}
	}
	for _, sz := range longSizes {
		inst, _ := workload.Long(rng, sz, 1, 10)
		t0 := time.Now()
		res, err := tise.Solve(inst, tise.Options{})
		if err != nil {
			panic(err)
		}
		t.Add("long (LP+round+EDF)", inst.N(), float64(time.Since(t0).Microseconds())/1000, res.Schedule.NumCalibrations())
	}
	for _, sz := range shortSizes {
		inst, _ := workload.Short(rng, sz, 2, 10)
		t0 := time.Now()
		res, err := shortwin.Solve(inst, shortwin.Options{})
		if err != nil {
			panic(err)
		}
		t.Add("short (partition+MM)", inst.N(), float64(time.Since(t0).Microseconds())/1000, res.Schedule.NumCalibrations())
	}
	clusters := []int{2, 4}
	if cfg.Quick {
		clusters = []int{2}
	}
	for _, k := range clusters {
		inst, _ := workload.Clustered(rng, k, 5, 1, 10)
		t0 := time.Now()
		mono, err := core.Solve(inst, core.Options{})
		if err != nil {
			panic(err)
		}
		monoT := time.Since(t0)
		t.Add("clustered monolithic", inst.N(), float64(monoT.Microseconds())/1000, mono.Schedule.NumCalibrations())
		t0 = time.Now()
		par, err := core.Solve(inst, core.Options{Parallelism: k})
		if err != nil {
			panic(err)
		}
		parT := time.Since(t0)
		if math.Abs(mono.LPObjective-par.LPObjective) > 1e-6*(1+mono.LPObjective) {
			panic("exp: decomposed LP objective differs from monolithic")
		}
		t.Add("clustered decomposed", inst.N(), float64(parT.Microseconds())/1000, par.Schedule.NumCalibrations())
	}
	return t
}

// T9Practical compares the paper-faithful pipeline against the
// practical extensions implemented beyond the paper: machine
// compaction (optimal recoloring of the calibration intervals) and the
// generalized lazy heuristic, on mixed workloads.
func T9Practical(cfg Config) *Table {
	t := NewTable("T9 — practical ablations: compaction, local search, and the lazy heuristic (beyond the paper)",
		"n(mean)", "paper cals", "paper mach", "compact mach", "improved cals", "lazy cals", "lazy mach",
		"paper/LB", "improved/LB", "lazy/LB")
	t.Caption = "compaction keeps the paper's schedule, recolored onto minimum machines"
	rng := rand.New(rand.NewSource(109))
	sizes := []int{10, 20}
	if cfg.Quick {
		sizes = []int{10}
	}
	for _, sz := range sizes {
		var n, paper, paperM, compactM, improvedC, lazyC, lazyM, paperR, improvedR, lazyR agg
		for trial := 0; trial < cfg.trials(); trial++ {
			inst, _ := workload.Mixed(rng, sz, 1+sz/16, 10, 0.5)
			res, err := core.Solve(inst, core.Options{})
			if err != nil {
				panic(err)
			}
			mustValidate(inst, res.Schedule)
			comp, err := ise.Compact(inst, res.Schedule)
			if err != nil {
				panic(err)
			}
			mustValidate(inst, comp)
			if comp.NumCalibrations() != res.Schedule.NumCalibrations() {
				panic("exp: compaction changed the calibration count")
			}
			impr, err := improve.Run(inst, res.Schedule)
			if err != nil {
				panic(err)
			}
			mustValidate(inst, impr.Schedule)
			if impr.Schedule.NumCalibrations() > res.Schedule.NumCalibrations() {
				panic("exp: local search increased calibrations")
			}
			lz, err := heur.Lazy(inst, heur.Options{})
			if err != nil {
				panic(err)
			}
			mustValidate(inst, lz)
			lb := bounds.Calibrations(inst)
			n.add(float64(inst.N()))
			paper.add(float64(res.Schedule.NumCalibrations()))
			paperM.add(float64(res.Schedule.MachinesUsed()))
			compactM.add(float64(comp.MachinesUsed()))
			improvedC.add(float64(impr.Schedule.NumCalibrations()))
			lazyC.add(float64(lz.NumCalibrations()))
			lazyM.add(float64(lz.MachinesUsed()))
			if lb > 0 {
				paperR.add(float64(res.Schedule.NumCalibrations()) / float64(lb))
				improvedR.add(float64(impr.Schedule.NumCalibrations()) / float64(lb))
				lazyR.add(float64(lz.NumCalibrations()) / float64(lb))
			}
		}
		t.Add(n.mean(), paper.mean(), paperM.mean(), compactM.mean(), improvedC.mean(),
			lazyC.mean(), lazyM.mean(), paperR.mean(), improvedR.mean(), lazyR.mean())
	}
	return t
}

// T10IntegralityGap measures, on small long-window instances, the gap
// chain the long-window algorithm traverses: fractional LP optimum <=
// integral relaxation optimum <= rounded calibrations <= final
// schedule calibrations. The LP-to-ILP step is the integrality gap the
// factor-2 rounding of Lemma 7 pays for.
func T10IntegralityGap(cfg Config) *Table {
	t := NewTable("T10 — integrality gap of the TISE relaxation (Lemma 7's factor 2)",
		"n", "LP", "ILP", "gap ILP/LP", "rounded", "final", "final/LP")
	rng := rand.New(rand.NewSource(110))
	rows := 3
	if cfg.Quick {
		rows = 2
	}
	emitted := 0
	for emitted < rows {
		inst, _ := workload.Planted(rng, workload.PlantedConfig{
			Machines: 1, T: 8, CalibrationsPerMachine: 1 + emitted%2,
			Window: workload.LongWindow,
		})
		if inst.N() == 0 || inst.N() > 5 {
			continue
		}
		ires, err := tise.SolveIntegralLP(inst, 3, 0)
		if err != nil {
			panic(err)
		}
		if !ires.Found {
			continue
		}
		res, err := tise.Solve(inst, tise.Options{})
		if err != nil {
			panic(err)
		}
		mustValidate(inst, res.Schedule)
		gap := 0.0
		if ires.LPObjective > 0 {
			gap = ires.Objective / ires.LPObjective
		}
		finalRatio := 0.0
		if ires.LPObjective > 0 {
			finalRatio = float64(res.Schedule.NumCalibrations()) / ires.LPObjective
		}
		t.Add(inst.N(), ires.LPObjective, ires.Objective, gap,
			len(res.RoundedTimes), res.Schedule.NumCalibrations(), finalRatio)
		emitted++
	}
	return t
}

// T11GammaSweep trades the long/short threshold gamma: larger gamma
// sends more jobs through the LP pipeline and lengthens the short
// intervals (2*gamma calibrations per MM machine), exactly the
// trade-off the paper's Section 3 remark describes.
func T11GammaSweep(cfg Config) *Table {
	t := NewTable("T11 — long/short threshold sweep (Section 3 remark: threshold >= 2T is valid)",
		"gamma", "n(mean)", "long(mean)", "short(mean)", "cals(mean)", "mach(mean)", "cals/LB(mean)")
	rng := rand.New(rand.NewSource(111))
	gammas := []int{2, 3, 4}
	if cfg.Quick {
		gammas = []int{2, 3}
	}
	// One fixed pool of instances per gamma for comparability.
	var insts []*ise.Instance
	for trial := 0; trial < cfg.trials(); trial++ {
		inst, _ := workload.Mixed(rng, 14, 1, 10, 0.5)
		insts = append(insts, inst)
	}
	for _, gamma := range gammas {
		var n, long, short, cals, mach, ratio agg
		for _, inst := range insts {
			res, err := core.Solve(inst, core.Options{Gamma: gamma})
			if err != nil {
				panic(err)
			}
			mustValidate(inst, res.Schedule)
			lb := bounds.Calibrations(inst)
			n.add(float64(inst.N()))
			long.add(float64(res.LongJobs))
			short.add(float64(res.ShortJobs))
			cals.add(float64(res.Schedule.NumCalibrations()))
			mach.add(float64(res.Schedule.MachinesUsed()))
			if lb > 0 {
				ratio.add(float64(res.Schedule.NumCalibrations()) / float64(lb))
			}
		}
		t.Add(gamma, n.mean(), long.mean(), short.mean(), cals.mean(), mach.mean(), ratio.mean())
	}
	return t
}

// T12Utilization replays each policy's schedule through the
// discrete-event simulator and reports fleet utilization (busy ticks /
// calibrated ticks) — the operational cost picture behind the
// calibration counts.
func T12Utilization(cfg Config) *Table {
	t := NewTable("T12 — calibrated-time utilization by policy (replay simulator)",
		"policy", "cals(mean)", "busy(mean)", "calibrated(mean)", "utilization(mean)")
	rng := rand.New(rand.NewSource(112))
	type policy struct {
		name  string
		solve func(inst *ise.Instance) (*ise.Schedule, error)
	}
	policies := []policy{
		{"paper pipeline", func(inst *ise.Instance) (*ise.Schedule, error) {
			r, err := core.Solve(inst, core.Options{})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		}},
		{"paper + trim", func(inst *ise.Instance) (*ise.Schedule, error) {
			r, err := core.Solve(inst, core.Options{TrimIdle: true})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		}},
		{"lazy heuristic", func(inst *ise.Instance) (*ise.Schedule, error) {
			return heur.Lazy(inst, heur.Options{})
		}},
	}
	var insts []*ise.Instance
	for trial := 0; trial < cfg.trials(); trial++ {
		inst, _ := workload.Mixed(rng, 16, 1, 10, 0.5)
		insts = append(insts, inst)
	}
	for _, pol := range policies {
		var cals, busy, calt, util agg
		for _, inst := range insts {
			sched, err := pol.solve(inst)
			if err != nil {
				panic(err)
			}
			mustValidate(inst, sched)
			rep := replay.Replay(inst, sched)
			if !rep.Feasible {
				panic("exp: simulator rejected a validated schedule: " + rep.Violation)
			}
			if rep.JobsCompleted != inst.N() {
				panic("exp: replay lost jobs")
			}
			cals.add(float64(sched.NumCalibrations()))
			busy.add(float64(rep.BusyTicks))
			calt.add(float64(rep.CalibratedTicks))
			util.add(rep.Utilization)
		}
		t.Add(pol.name, cals.mean(), busy.mean(), calt.mean(), util.mean())
	}
	return t
}

// T13HeuristicAblation sweeps the lazy heuristic's design knobs (job
// order x calibration-opening policy) on mixed workloads, quantifying
// how much of its quality comes from laziness.
func T13HeuristicAblation(cfg Config) *Table {
	t := NewTable("T13 — lazy-heuristic ablation: job order x opening policy",
		"order", "opening", "cals(mean)", "mach(mean)", "cals/LB(mean)", "cals/LB(max)")
	rng := rand.New(rand.NewSource(113))
	var insts []*ise.Instance
	for trial := 0; trial < cfg.trials(); trial++ {
		inst, _ := workload.Mixed(rng, 16, 1, 10, 0.5)
		insts = append(insts, inst)
	}
	orders := []heur.Order{heur.DeadlineOrder, heur.ReleaseOrder, heur.SlackOrder}
	openings := []heur.Opening{heur.LazyOpening, heur.EagerOpening}
	if cfg.Quick {
		orders = orders[:2]
	}
	for _, ord := range orders {
		for _, open := range openings {
			var cals, mach, ratio agg
			for _, inst := range insts {
				s, err := heur.Lazy(inst, heur.Options{Order: ord, Opening: open})
				if err != nil {
					panic(err)
				}
				mustValidate(inst, s)
				lb := bounds.Calibrations(inst)
				cals.add(float64(s.NumCalibrations()))
				mach.add(float64(s.MachinesUsed()))
				if lb > 0 {
					ratio.add(float64(s.NumCalibrations()) / float64(lb))
				}
			}
			t.Add(ord.String(), open.String(), cals.mean(), mach.mean(), ratio.mean(), ratio.max)
		}
	}
	return t
}

// T14Online measures the price of the future: the online lazy policy
// (jobs revealed at release, irrevocable decisions) against the
// offline heuristic and the lower bound, per workload family.
func T14Online(cfg Config) *Table {
	t := NewTable("T14 — online vs offline (extension beyond the paper)",
		"workload", "n(mean)", "online cals", "offline cals", "premium%", "online/LB", "offline/LB")
	rng := rand.New(rand.NewSource(114))
	families := []struct {
		name string
		gen  func() *ise.Instance
	}{
		{"mixed", func() *ise.Instance { i, _ := workload.Mixed(rng, 14, 1, 10, 0.5); return i }},
		{"poisson", func() *ise.Instance { return workload.Poisson(rng, 14, 2, 10, 6) }},
		{"stockpile", func() *ise.Instance { return workload.Stockpile(rng, 4, 3, 2, 10, 40) }},
	}
	if cfg.Quick {
		families = families[:1]
	}
	for _, fam := range families {
		var n, onC, offC, onR, offR agg
		for trial := 0; trial < cfg.trials(); trial++ {
			inst := fam.gen()
			on, err := online.Lazy(inst)
			if err != nil {
				panic(err)
			}
			mustValidate(inst, on)
			off, err := heur.Lazy(inst, heur.Options{})
			if err != nil {
				panic(err)
			}
			mustValidate(inst, off)
			lb := bounds.Calibrations(inst)
			n.add(float64(inst.N()))
			onC.add(float64(on.NumCalibrations()))
			offC.add(float64(off.NumCalibrations()))
			if lb > 0 {
				onR.add(float64(on.NumCalibrations()) / float64(lb))
				offR.add(float64(off.NumCalibrations()) / float64(lb))
			}
		}
		premium := 100 * (onC.mean() - offC.mean()) / offC.mean()
		t.Add(fam.name, n.mean(), onC.mean(), offC.mean(), premium, onR.mean(), offR.mean())
	}
	return t
}

// AllParallel runs the full suite with the given number of workers
// and returns the tables in suite order. Every experiment owns its RNG
// (fixed seed), so the tables do not depend on the worker count; only
// wall clock changes.
func AllParallel(cfg Config, workers int) []*Table {
	runs := []func(Config) *Table{
		T1LongWindow, T2SpeedTrade, T3ShortWindow, T4EndToEnd,
		T5UnitBaselines, T6LPEngines, T7Crossing, T8Scaling,
		T9Practical, T10IntegralityGap, T11GammaSweep, T12Utilization,
		T13HeuristicAblation, T14Online,
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]*Table, len(runs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, f := range runs {
		wg.Add(1)
		go func(i int, f func(Config) *Table) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = f(cfg)
		}(i, f)
	}
	wg.Wait()
	return out
}
