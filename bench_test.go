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
	"calib/internal/exp"
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
// time-component decomposition on a pool of 4 workers — what
// SolveRobust runs on every request. Both arms build the same dense
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
