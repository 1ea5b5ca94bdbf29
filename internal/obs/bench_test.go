package obs

import "testing"

// BenchmarkObsOverhead is the CI gate for the strictly-off default:
// with a nil Trace and a nil Registry, the full set of telemetry
// calls a hot solve makes must compile down to nil checks — 0
// allocs/op, enforced by .github/workflows/ci.yml.
func BenchmarkObsOverhead(b *testing.B) {
	var tr *Trace
	var reg *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Root().Start("solve")
		sp.SetInt("jobs", int64(i))
		lp := sp.Start("lp")
		lp.SetStr("engine", "float64")
		reg.Counter(MLPPivots).Add(17)
		reg.Counter(MTISEResolves).Inc()
		reg.CounterWith(MFaultInjected, "point", "solve_panic").Inc()
		g := reg.Gauge(MDecompPoolBusy)
		g.Add(1)
		g.Add(-1)
		reg.GaugeWith(MSLOBurnRate, "route", "solve").Set(0.5)
		reg.Histogram(MDecompCompSecs, nil).Observe(0.001)
		reg.HistogramWith(MSLOSeconds, "route", "solve", nil).Observe(0.001)
		_ = lp.ID()
		_ = lp.ParentID()
		_ = lp.Trace()
		lp.End()
		sp.End()
	}
}

// BenchmarkObsEnabled measures the live cost of the same call
// pattern, for the overhead table in docs/OBSERVABILITY.md.
func BenchmarkObsEnabled(b *testing.B) {
	tr := NewTrace("bench")
	reg := NewRegistry()
	pivots := reg.Counter(MLPPivots)
	resolves := reg.Counter(MTISEResolves)
	busy := reg.Gauge(MDecompPoolBusy)
	hist := reg.Histogram(MDecompCompSecs, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Root().Start("solve")
		sp.SetInt("jobs", int64(i))
		pivots.Add(17)
		resolves.Inc()
		busy.Add(1)
		busy.Add(-1)
		hist.Observe(0.001)
		sp.End()
	}
}
