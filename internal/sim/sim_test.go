package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calib/internal/obs"
	"calib/internal/server"
)

// testSpec is small enough for the race detector but hot enough to
// exercise every verdict: with 15ms virtual solves at ~90 req/s and
// one slot, the tight policy queues and sheds while the cache absorbs
// repeats of the 6 distinct instances per class.
func testSpec() *Spec {
	s := &Spec{
		Name:       "unit",
		Seed:       11,
		DurationMS: 400,
		Cost:       CostModel{BaseUS: 15000, PerJobUS: 500, Jitter: 0.2},
		Classes: []ClassSpec{
			{
				Name:      "fast",
				Arrival:   ArrivalSpec{Process: "poisson", RatePerSec: 60},
				Instances: InstanceSpec{Family: "mixed", N: 10, M: 2, T: 8, Distinct: 6},
				SLOMS:     20,
			},
			{
				Name:      "slow",
				Arrival:   ArrivalSpec{Process: "gamma", RatePerSec: 30, Shape: 3},
				Instances: InstanceSpec{Family: "short", N: 12, M: 1, T: 8, Distinct: 6},
				SLOMS:     60,
			},
		},
		Policies: []PolicySpec{
			{Name: "tight", MaxInflight: 1, MaxQueue: 2, QueueWaitMS: 10, CacheEntries: 64},
			{Name: "roomy", MaxInflight: 8, MaxQueue: 8, QueueWaitMS: 20, CacheEntries: 1024},
		},
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func mustSimulate(t *testing.T, spec *Spec, seed int64, policies []PolicySpec, tlog *server.TraceLog) *Report {
	t.Helper()
	w, err := BuildWorkload(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Requests) == 0 {
		t.Fatal("spec generated no requests")
	}
	rep, err := Simulate(w, seed, policies, tlog)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSimulateDeterministic is the CI determinism gate in miniature:
// two full runs of the same seeded spec must produce byte-identical
// reports.
func TestSimulateDeterministic(t *testing.T) {
	spec := testSpec()
	a := mustSimulate(t, spec, spec.Seed, spec.Policies, nil)
	b := mustSimulate(t, spec, spec.Seed, spec.Policies, nil)
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("two runs of the same seed diverged:\n%s\nvs\n%s", ja, jb)
	}
}

// TestSimulateExercisesAllVerdicts guards the spec tuning: a workload
// with no contention tests nothing, so fail loudly if the tight
// policy stops shedding or queueing or the cache stops hitting.
func TestSimulateExercisesAllVerdicts(t *testing.T) {
	spec := testSpec()
	rep := mustSimulate(t, spec, spec.Seed, spec.Policies, nil)
	tight := rep.Policies[0]
	if tight.Shed == 0 {
		t.Error("tight policy shed nothing; spec no longer creates contention")
	}
	if tight.Queued == 0 {
		t.Error("tight policy queued nothing")
	}
	if tight.CacheHits == 0 {
		t.Error("no cache hits; distinct-instance reuse broke")
	}
	if tight.Solves == 0 {
		t.Error("no leader solves")
	}
	if tight.Errors != 0 {
		t.Errorf("%d solver errors", tight.Errors)
	}
	roomy := rep.Policies[1]
	if roomy.Shed >= tight.Shed {
		t.Errorf("roomy policy shed %d >= tight %d; counterfactual direction wrong", roomy.Shed, tight.Shed)
	}
}

// TestReplayRoundTrip is the property the replay subsystem promises:
// a trace recorded by -trace-log, replayed through the simulator
// under the policy that produced it, reproduces every per-request
// admission verdict and cache outcome exactly.
func TestReplayRoundTrip(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	pol := []PolicySpec{spec.Policies[0]} // tight: sheds, queues, hits

	record := func(path string, w *Workload) map[string]server.Record {
		t.Helper()
		tlog, err := server.OpenTraceLog(path, 0, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Simulate(w, spec.Seed, pol, tlog); err != nil {
			t.Fatal(err)
		}
		if err := tlog.Close(); err != nil {
			t.Fatal(err)
		}
		recs, skipped, err := server.ReadTraceLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if skipped != 0 {
			t.Fatalf("%d corrupt records in %s", skipped, path)
		}
		byID := make(map[string]server.Record, len(recs))
		for _, rec := range recs {
			byID[rec.ID] = rec
		}
		return byID
	}

	w1, err := BuildWorkload(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	orig := record(filepath.Join(dir, "orig.jsonl"), w1)

	recs, _, err := server.ReadTraceLog(filepath.Join(dir, "orig.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ReplayWorkload("unit", recs, spec.Seed, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(w2.Requests) != len(w1.Requests) {
		t.Fatalf("replay workload has %d requests, original %d", len(w2.Requests), len(w1.Requests))
	}
	replayed := record(filepath.Join(dir, "replay.jsonl"), w2)

	if len(replayed) != len(orig) {
		t.Fatalf("replay produced %d records, original %d", len(replayed), len(orig))
	}
	mismatches := 0
	for id, o := range orig {
		r, ok := replayed[id]
		if !ok {
			t.Errorf("request %s missing from replay", id)
			mismatches++
			continue
		}
		if r.Admission != o.Admission || r.Cache != o.Cache || r.Status != o.Status || r.Outcome != o.Outcome {
			t.Errorf("request %s: original {adm=%s cache=%s status=%d outcome=%s} replay {adm=%s cache=%s status=%d outcome=%s}",
				id, o.Admission, o.Cache, o.Status, o.Outcome, r.Admission, r.Cache, r.Status, r.Outcome)
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d verdicts diverged on replay", mismatches, len(orig))
	}
}

// TestCounterfactualCacheSize checks the comparison the tool exists
// for: the same trace under a starved cache must hit less.
func TestCounterfactualCacheSize(t *testing.T) {
	spec := testSpec()
	policies := []PolicySpec{
		{Name: "big-cache", MaxInflight: 2, MaxQueue: 4, QueueWaitMS: 10, CacheEntries: 1024},
		{Name: "tiny-cache", MaxInflight: 2, MaxQueue: 4, QueueWaitMS: 10, CacheEntries: 1},
	}
	rep := mustSimulate(t, spec, spec.Seed, policies, nil)
	big, tiny := rep.Policies[0], rep.Policies[1]
	if big.CacheHitRate <= tiny.CacheHitRate {
		t.Errorf("big cache hit rate %.4f <= tiny cache %.4f", big.CacheHitRate, tiny.CacheHitRate)
	}
	if tiny.Solves <= big.Solves {
		t.Errorf("tiny cache solves %d <= big cache %d; evictions not forcing re-solves", tiny.Solves, big.Solves)
	}
}

func TestSpecValidate(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name: "v", DurationMS: 100,
			Classes:  []ClassSpec{{Name: "a", Arrival: ArrivalSpec{RatePerSec: 10}}},
			Policies: []PolicySpec{{Name: "p"}},
		}
	}

	s := base()
	if err := s.Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	c := s.Classes[0]
	if c.Arrival.Process != "poisson" || c.SLOMS != 100 || c.Objective != 0.99 ||
		c.Instances.Family != "mixed" || c.Instances.Distinct != 32 {
		t.Errorf("defaults not filled: %+v", c)
	}
	if s.Policies[0].MaxInflight != 4 {
		t.Errorf("policy default not filled: %+v", s.Policies[0])
	}

	s = base()
	s.Classes = append(s.Classes, s.Classes[0])
	if err := s.Validate(); err == nil {
		t.Error("duplicate class name accepted")
	}
	s = base()
	s.Classes[0].Arrival.Process = "pareto"
	if err := s.Validate(); err == nil {
		t.Error("unknown arrival process accepted")
	}
	s = base()
	s.Policies = nil
	if err := s.Validate(); err == nil {
		t.Error("spec with no policies accepted")
	}
}

// TestLoadSpecUnknownKeys: a misspelled or retired key must fail the
// load, naming the key, instead of running at the default; the
// committed specs still load.
func TestLoadSpecUnknownKeys(t *testing.T) {
	dir := t.TempDir()
	for key, val := range map[string]string{"max_inflght": "64", "warm_start": "true"} {
		path := filepath.Join(dir, key+".json")
		spec := `{"name": "k", "duration_ms": 100,
  "classes": [{"name": "a", "arrival": {"rate_per_sec": 10}}],
  "policies": [{"name": "p", "` + key + `": ` + val + `}]}`
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSpec(path)
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("policy key %q: err = %v, want an unknown-field error naming it", key, err)
		}
	}
	for _, name := range []string{"steady", "burst"} {
		if _, err := LoadSpec(filepath.Join("..", "..", "testdata", "sim", name+".json")); err != nil {
			t.Errorf("testdata spec %s: %v", name, err)
		}
	}
}

// TestBuildWorkloadClassIndependence pins the named-stream contract:
// adding a class must not perturb another class's request sequence.
func TestBuildWorkloadClassIndependence(t *testing.T) {
	spec := testSpec()
	w1, err := BuildWorkload(spec, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := testSpec()
	spec2.Classes = append(spec2.Classes, ClassSpec{
		Name:    "extra",
		Arrival: ArrivalSpec{Process: "weibull", RatePerSec: 25, Shape: 0.7},
	})
	if err := spec2.Validate(); err != nil {
		t.Fatal(err)
	}
	w2, err := BuildWorkload(spec2, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*request{}
	for _, r := range w2.Requests {
		byID[r.ID] = r
	}
	for _, r := range w1.Requests {
		r2, ok := byID[r.ID]
		if !ok {
			t.Fatalf("request %s vanished when a class was added", r.ID)
		}
		if r2.ArrivalNS != r.ArrivalNS || r2.CostNS != r.CostNS {
			t.Fatalf("request %s perturbed: arrival %d->%d cost %d->%d",
				r.ID, r.ArrivalNS, r2.ArrivalNS, r.CostNS, r2.CostNS)
		}
	}
}

func TestCompareGate(t *testing.T) {
	mk := func(p99, shed float64) *Report {
		return &Report{
			Schema: ReportSchema, Name: "unit",
			Policies: []PolicyReport{{
				Name: "p", ShedRate: shed,
				Classes: []ClassReport{{Name: "a", P99MS: p99}},
			}},
		}
	}
	base := mk(10, 0.02)

	if bad := Compare(base, mk(10.4, 0.021), 0.10); len(bad) != 0 {
		t.Errorf("within tolerance flagged: %v", bad)
	}
	// p99 past base*(1+tol) + 0.5ms floor.
	if bad := Compare(base, mk(12.0, 0.02), 0.10); len(bad) != 1 {
		t.Errorf("p99 regression not flagged: %v", bad)
	}
	// shed past base*(1+tol) + 0.01 floor.
	if bad := Compare(base, mk(10, 0.04), 0.10); len(bad) != 1 {
		t.Errorf("shed regression not flagged: %v", bad)
	}
	cur := mk(10, 0.02)
	cur.Schema = "ise-capacity/v0"
	if bad := Compare(base, cur, 0.10); len(bad) != 1 {
		t.Errorf("schema mismatch not flagged: %v", bad)
	}
	// A policy absent from the baseline passes (it is new).
	cur = mk(99, 0.5)
	cur.Policies[0].Name = "brand-new"
	if bad := Compare(base, cur, 0.10); len(bad) != 0 {
		t.Errorf("new policy flagged: %v", bad)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {1.0, 10},
	}
	for _, c := range cases {
		if got := quantile(vals, c.q); got != c.want {
			t.Errorf("quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty = %v", got)
	}
}
