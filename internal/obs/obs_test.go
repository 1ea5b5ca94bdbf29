package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSpanTree checks parenting, attributes and both renderings.
func TestSpanTree(t *testing.T) {
	tr := NewTrace("solve")
	lp := tr.Root().Start("lp")
	lp.SetInt("points", 40)
	lp.SetFloat("objective", 3.5)
	lp.SetStr("engine", "float64")
	lp.End()
	round := tr.Root().Start("rounding")
	round.End()
	tr.Finish()

	var text bytes.Buffer
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"solve", "lp", "rounding", "points=40", "objective=3.5", "engine=float64"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text rendering missing %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := tr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var tree struct {
		Name     string `json:"name"`
		US       int64  `json:"us"`
		Children []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"children"`
	}
	if err := json.Unmarshal(js.Bytes(), &tree); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, js.String())
	}
	if tree.Name != "solve" || len(tree.Children) != 2 {
		t.Fatalf("tree = %+v, want solve with 2 children", tree)
	}
	if tree.Children[0].Attrs["points"] != float64(40) {
		t.Errorf("lp attrs = %v", tree.Children[0].Attrs)
	}
}

// TestConcurrentSpans creates sibling spans and attributes from many
// goroutines, the decomp-worker-pool shape; run under -race this is
// the data-race gate for the span tree.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTrace("solve")
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.Root().Start("component")
				sp.SetInt("worker", int64(w))
				child := sp.Start("lp")
				child.SetInt("iter", int64(i))
				child.End()
				reg.Counter(MLPPivots).Add(3)
				reg.CounterWith(MFaultInjected, "point", "solve_panic").Inc()
				v := reg.Gauge(MDecompPoolBusy).Add(1)
				reg.Gauge(MDecompPoolMax).SetMax(v)
				reg.Histogram(MDecompCompSecs, nil).Observe(0.001)
				reg.Gauge(MDecompPoolBusy).Add(-1)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	tr.Finish()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "component"); got != 400 {
		t.Errorf("rendered %d component spans, want 400", got)
	}
	if got := reg.Counter(MLPPivots).Value(); got != 1200 {
		t.Errorf("pivots = %d, want 1200", got)
	}
	if got := reg.Histogram(MDecompCompSecs, nil).Count(); got != 400 {
		t.Errorf("histogram count = %d, want 400", got)
	}
}

// TestSnapshotDeterminism: repeated snapshots and renderings of a
// quiescent registry must be byte-identical, regardless of the
// (random) map iteration order underneath.
func TestSnapshotDeterminism(t *testing.T) {
	reg := NewRegistry()
	Declare(reg)
	reg.Counter(MLPPivots).Add(17)
	reg.CounterWith(MFaultInjected, "point", "solve_panic").Inc()
	reg.CounterWith(MFaultInjected, "point", "solve_latency").Add(2)
	reg.Gauge(MDecompComponents).Set(3)
	reg.Histogram(MDecompCompSecs, nil).Observe(0.002)

	var first bytes.Buffer
	if err := reg.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var again bytes.Buffer
		if err := reg.WriteJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("JSON rendering %d differs:\n%s\nvs\n%s", i, first.String(), again.String())
		}
	}
	s1, s2 := reg.Snapshot(), reg.Snapshot()
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Fatalf("snapshots differ: %v vs %v", s1, s2)
	}
}

// TestGoldenEncodings pins the expvar JSON and Prometheus text
// outputs for a small registry.
func TestGoldenEncodings(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lp_pivots_total").Add(42)
	reg.CounterWith("fault_injected_total", "point", "solve_panic").Inc()
	reg.Gauge("decomp_components").Set(2)
	h := reg.Histogram("component_seconds", []float64{0.01, 1})
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(2)

	var js bytes.Buffer
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	wantJSON := `{
  "component_seconds": {"count": 3, "sum": 2.505, "buckets": {"0.01": 1, "1": 2, "+Inf": 3}},
  "decomp_components": 2,
  "fault_injected_total": 1,
  "fault_injected_total{point=\"solve_panic\"}": 1,
  "lp_pivots_total": 42
}
`
	if js.String() != wantJSON {
		t.Errorf("expvar JSON:\n%s\nwant:\n%s", js.String(), wantJSON)
	}
	var parsed map[string]any
	if err := json.Unmarshal(js.Bytes(), &parsed); err != nil {
		t.Fatalf("golden JSON does not parse: %v", err)
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	wantProm := `# HELP fault_injected_total Deterministic fault injections fired, by point.
# TYPE fault_injected_total counter
fault_injected_total{point="solve_panic"} 1
# HELP lp_pivots_total Simplex pivots across both phases, all engines.
# TYPE lp_pivots_total counter
lp_pivots_total 42
# HELP decomp_components Time components in the last decomposed solve.
# TYPE decomp_components gauge
decomp_components 2
# TYPE component_seconds histogram
component_seconds_bucket{le="0.01"} 1
component_seconds_bucket{le="1"} 2
component_seconds_bucket{le="+Inf"} 3
component_seconds_sum 2.505
component_seconds_count 3
`
	if prom.String() != wantProm {
		t.Errorf("prometheus text:\n%s\nwant:\n%s", prom.String(), wantProm)
	}
}

// TestNilReceivers: the entire API must be a no-op on nil receivers.
func TestNilReceivers(t *testing.T) {
	var tr *Trace
	var reg *Registry
	sp := tr.Root().Start("lp")
	sp.SetInt("k", 1)
	sp.SetFloat("f", 1)
	sp.SetStr("s", "x")
	sp.End()
	if sp != nil || tr.Root() != nil {
		t.Fatal("nil trace produced a span")
	}
	tr.Finish()
	if err := tr.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	c := reg.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	reg.CounterWith("x", "a", "b").Inc()
	g := reg.Gauge("g")
	g.Set(1)
	if g.Add(2) != 0 || g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	g.SetMax(9)
	reg.GaugeWith("g", "a", "b").Set(1)
	h := reg.Histogram("h", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram has observations")
	}
	reg.HistogramWith("h", "a", "b", nil).Observe(1)
	if sp.ID() != 0 || sp.ParentID() != 0 || sp.Trace() != nil {
		t.Fatal("nil span minted an ID or a trace")
	}
	Declare(reg)
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Hists) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if err := reg.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestNoopZeroAlloc enforces in-tree what the CI benchmark gate
// enforces out-of-tree: the disabled telemetry path allocates nothing.
func TestNoopZeroAlloc(t *testing.T) {
	var tr *Trace
	var reg *Registry
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Root().Start("solve")
		sp.SetInt("jobs", 40)
		sp.SetStr("engine", "float64")
		reg.Counter(MLPPivots).Add(3)
		reg.CounterWith(MFaultInjected, "point", "solve_panic").Inc()
		g := reg.Gauge(MDecompPoolBusy)
		g.Add(1)
		g.Add(-1)
		reg.GaugeWith(MSLOBurnRate, "route", "solve").Set(0.5)
		reg.Histogram(MDecompCompSecs, nil).Observe(0.01)
		reg.HistogramWith(MSLOSeconds, "route", "solve", nil).Observe(0.01)
		_ = sp.ID()
		_ = sp.Trace()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("no-op telemetry path allocates %.1f/op, want 0", allocs)
	}
}

// TestDefaultRegistry covers the opt-in process defaults.
func TestDefaultRegistry(t *testing.T) {
	if Default() != nil || DefaultTrace() != nil {
		t.Fatal("defaults must start nil")
	}
	reg := NewRegistry()
	tr := NewTrace("batch")
	SetDefault(reg)
	SetDefaultTrace(tr)
	defer SetDefault(nil)
	defer SetDefaultTrace(nil)
	if Default() != reg || DefaultTrace() != tr {
		t.Fatal("defaults not installed")
	}
}
