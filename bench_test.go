package calib_test

// One benchmark per reproduced artifact (Figures 1-3, experiments
// T1-T14 of DESIGN.md). Each benchmark runs its experiment at reduced
// scale; `go test -bench=. -benchmem` therefore re-derives every
// figure and table of the reproduction, while `cmd/isebench` prints
// them at full scale. The experiment bodies contain hard assertions
// (they panic if a proven bound is violated), so these benches double
// as continuous bound checks.

import (
	"math/rand"
	"testing"
	"time"

	"calib"
	"calib/internal/core"
	"calib/internal/decomp"
	"calib/internal/exact"
	"calib/internal/exp"
	"calib/internal/heur"
	"calib/internal/improve"
	"calib/internal/ise"
	"calib/internal/lp"
	"calib/internal/obs"
	"calib/internal/tise"
	"calib/internal/workload"
)

var benchCfg = exp.Config{Trials: 2, Quick: true}

func BenchmarkFig1Transform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Rounding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.Figure2()
	}
}

func BenchmarkFig3Assignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1LongWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T1LongWindow(benchCfg)
	}
}

// BenchmarkT1LongWindowN40 is the headline end-to-end comparison at
// n=40: the seed pipeline (one monolithic solve) versus the hot path,
// time-component decomposition on a pool of 4 workers. SolveRobust
// decomposes every request too, but ised sets no Parallelism, so a
// served request's components run on one worker (DESIGN.md §5: a
// 2-worker pool gained nothing there). Both arms build the same dense
// tableau with the full pair-row family per component. The workload is
// T1-style — long-window jobs planted around calibration clusters — at
// 4 clusters x 10 jobs. "HotPath" reports the end-to-end quotient as
// "x-speedup"; scripts/bench.sh records both arms in BENCH_lp.json.
func BenchmarkT1LongWindowN40(b *testing.B) {
	inst, _ := workload.Clustered(rand.New(rand.NewSource(140)), 4, 10, 2, 10)
	hot := core.Options{Parallelism: 4}
	b.Run("Seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(inst, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HotPath", func(b *testing.B) {
		var seed, fast time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := core.Solve(inst, core.Options{}); err != nil {
				b.Fatal(err)
			}
			seed += time.Since(t0)
			t0 = time.Now()
			if _, err := core.Solve(inst, hot); err != nil {
				b.Fatal(err)
			}
			fast += time.Since(t0)
		}
		b.ReportMetric(float64(seed)/float64(fast), "x-speedup")
	})
}

// BenchmarkServedLadder times what ised serves: calib.SolveRobust with
// default options, so every time component descends the exact → LP →
// heuristic ladder, over servedCorpus (every workload family at n 8-40,
// shaped like perfbench's cold-ladder corpus). One op solves the whole
// corpus. pivots/op counts LP pivots and nodes/op exact-search nodes:
// they move only when the solver's decisions do, never with code
// placement or the host.
func BenchmarkServedLadder(b *testing.B) {
	corpus := servedCorpus(b)
	met := calib.NewMetrics()
	opts := &calib.Options{Metrics: met}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range corpus {
			if _, err := calib.SolveRobust(inst, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(met.Counter(obs.MLPPivots).Value())/float64(b.N), "pivots/op")
	b.ReportMetric(float64(met.Counter(obs.MExactNodes).Value())/float64(b.N), "nodes/op")
}

// exactTail holds components that the exact rung's search spent
// 100 000+ nodes on under the plain work-volume bound, as (r, d, p)
// triples in ID order at T = 10, m = 2: fixtures A and B of
// internal/exact's tests, three components (clustered, short, poisson)
// of its pinned corpus, and the clustered component that corpus leaves
// out. B and the last one hit the ladder's 500 000-node cap under that
// bound.
var exactTail = [][][3]calib.Time{
	{{0, 27, 4}, {6, 16, 2}, {7, 27, 1}, {9, 20, 1}, {10, 19, 2}, {10, 21, 4}, {15, 35, 1}, {17, 23, 4}, {18, 22, 1}, {19, 21, 1}, {39, 49, 3}, {41, 61, 4}},
	{{0, 36, 7}, {7, 14, 5}, {8, 29, 1}, {11, 27, 1}, {14, 51, 7}, {19, 40, 5}, {25, 45, 1}, {36, 56, 1}, {41, 79, 6}, {46, 66, 1}, {47, 69, 6}, {53, 55, 1}},
	{{0, 26, 7}, {2, 29, 1}, {7, 29, 2}, {9, 35, 3}, {16, 36, 1}, {19, 39, 1}, {19, 39, 2}, {22, 36, 4}, {44, 47, 2}, {44, 52, 5}},
	{{0, 13, 3}, {2, 18, 1}, {6, 12, 3}, {6, 22, 3}, {7, 20, 4}, {11, 20, 1}, {13, 28, 3}, {14, 24, 1}, {15, 22, 2}, {29, 40, 3}, {32, 47, 4}},
	{{40, 50, 10}, {51, 70, 3}, {58, 93, 1}, {69, 88, 5}, {73, 109, 9}, {83, 109, 7}, {90, 118, 9}, {90, 135, 7}, {92, 102, 1}, {99, 133, 7}, {106, 124, 2}, {108, 152, 5}},
	{{70, 103, 4}, {74, 99, 1}, {77, 97, 1}, {79, 104, 2}, {82, 102, 4}, {84, 102, 1}, {86, 106, 1}, {99, 120, 4}, {103, 107, 3}, {114, 122, 3}, {114, 139, 1}, {116, 125, 3}},
}

// BenchmarkExactTail times the exact rung's search, with the ladder's
// options, on exactTail: the heavy tail that BenchmarkServedLadder's
// corpus never reaches. One op solves every component; nodes/op is
// deterministic and moves only when the search's pruning does.
func BenchmarkExactTail(b *testing.B) {
	var insts []*calib.Instance
	for _, jobs := range exactTail {
		inst := calib.NewInstance(10, 2)
		for _, j := range jobs {
			inst.AddJob(j[0], j[1], j[2])
		}
		insts = append(insts, inst)
	}
	opts := exact.Options{MaxNodes: 500_000, WarmStart: true}
	nodes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			res, err := exact.Solve(inst, opts)
			if err != nil {
				b.Fatal(err)
			}
			nodes += res.Nodes
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// BenchmarkHeuristicPostPass times the greedy path beside the paper's
// pipeline: heur.Lazy, then improve.Run, then ise.Compact, on every
// decomp.Split component of familyCorpus's 432 instances. One op
// solves every component.
func BenchmarkHeuristicPostPass(b *testing.B) {
	var comps []*calib.Instance
	for _, inst := range familyCorpus(b, 12) {
		for _, c := range decomp.Split(inst) {
			comps = append(comps, c.Inst)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range comps {
			s, err := heur.Lazy(inst, heur.Options{})
			if err != nil {
				b.Fatal(err)
			}
			r, err := improve.Run(inst, s)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ise.Compact(inst, r.Schedule); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkT2SpeedTrade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T2SpeedTrade(benchCfg)
	}
}

func BenchmarkT3ShortWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T3ShortWindow(benchCfg)
	}
}

func BenchmarkT4EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T4EndToEnd(benchCfg)
	}
}

func BenchmarkT5UnitBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T5UnitBaselines(benchCfg)
	}
}

func BenchmarkT6LPEngines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T6LPEngines(benchCfg)
	}
}

func BenchmarkT7Crossing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T7Crossing(benchCfg)
	}
}

// BenchmarkT8Scaling runs the T8 wall-clock table plus a sub-benchmark
// that isolates time-component decomposition. DecomposedVsMonolithic
// times both configurations inside one iteration and reports the
// quotient as "x-speedup" (higher = faster decomposed path); its ns/op
// is deliberately zeroed since the split timings are what matters.
func BenchmarkT8Scaling(b *testing.B) {
	b.Run("Table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = exp.T8Scaling(benchCfg)
		}
	})
	clustered, _ := workload.Clustered(rand.New(rand.NewSource(89)), 4, 6, 2, 10)
	b.Run("DecomposedVsMonolithic", func(b *testing.B) {
		var mono, par time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := core.Solve(clustered, core.Options{}); err != nil {
				b.Fatal(err)
			}
			mono += time.Since(t0)
			t0 = time.Now()
			if _, err := core.Solve(clustered, core.Options{Parallelism: 4}); err != nil {
				b.Fatal(err)
			}
			par += time.Since(t0)
		}
		b.ReportMetric(float64(mono)/float64(par), "x-speedup")
		b.ReportMetric(0, "ns/op")
	})
}

func BenchmarkT9Practical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T9Practical(benchCfg)
	}
}

func BenchmarkT10IntegralityGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T10IntegralityGap(benchCfg)
	}
}

func BenchmarkT11GammaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T11GammaSweep(benchCfg)
	}
}

func BenchmarkT12Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T12Utilization(benchCfg)
	}
}

func BenchmarkT13HeuristicAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T13HeuristicAblation(benchCfg)
	}
}

func BenchmarkT14Online(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = exp.T14Online(benchCfg)
	}
}

// Component micro-benchmarks: the stages T8 aggregates.

func benchInstance(n int) *calib.Instance {
	rng := rand.New(rand.NewSource(int64(n)))
	inst, _ := workload.Mixed(rng, n, 2, 10, 0.5)
	return inst
}

func BenchmarkSolveMixedN12(b *testing.B) {
	inst := benchInstance(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calib.Solve(inst, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveMixedN24(b *testing.B) {
	inst := benchInstance(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calib.Solve(inst, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTISELPBuildSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	inst, _ := workload.Long(rng, 10, 1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tise.SolveLP(inst, 3, tise.Float64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexDense(b *testing.B) {
	// A moderately sized random LP (feasible, bounded by construction).
	rng := rand.New(rand.NewSource(12))
	const nv, nc = 60, 40
	p := lp.NewProblem()
	vars := make([]int, nv)
	for v := 0; v < nv; v++ {
		vars[v] = p.AddVar("x", float64(1+rng.Intn(5)))
	}
	for c := 0; c < nc; c++ {
		var terms []lp.Term
		rhs := 0.0
		for v := 0; v < nv; v++ {
			if coef := rng.Intn(4); coef != 0 {
				terms = append(terms, lp.Term{Var: vars[v], Coeff: float64(coef)})
				rhs += float64(coef * rng.Intn(3))
			}
		}
		p.AddConstraint(lp.LE, rhs, terms...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactOPTN7(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	inst, _ := workload.Planted(rng, workload.PlantedConfig{
		Machines: 1, T: 8, CalibrationsPerMachine: 2, Window: workload.AnyWindow,
	})
	if inst.N() > 7 {
		inst.Jobs = inst.Jobs[:7]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := calib.SolveExact(inst, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTISELPLargeDense(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	inst, _ := workload.Long(rng, 24, 2, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tise.SolveLP(inst, 6, tise.Float64); err != nil {
			b.Fatal(err)
		}
	}
}
