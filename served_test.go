package calib_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"calib"
	"calib/internal/canon"
	"calib/internal/obs"
	"calib/internal/workload"
)

// servedCorpus is a small fixed corpus with the shape of perfbench's
// cold-ladder corpus: every workload family at n = 8, 16, 24 and 40,
// two seeds per cell, m = 2, T = 10, each instance in the canonical
// form the service caches and solves.
func servedCorpus(tb testing.TB) []*calib.Instance { return familyCorpus(tb, 2) }

// familyCorpus is servedCorpus with seeds 1 to seeds per cell; at 12
// seeds it is the 432-instance corpus of DESIGN.md §5.
func familyCorpus(tb testing.TB, seeds int) []*calib.Instance {
	tb.Helper()
	var out []*calib.Instance
	for fi, fam := range workload.FamilyNames {
		for _, n := range []int{8, 16, 24, 40} {
			for seed := 1; seed <= seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(1000*seed + 100*fi + n)))
				inst, err := workload.Family(rng, fam, workload.FamilyConfig{N: n, M: 2, T: 10})
				if err != nil {
					tb.Fatal(err)
				}
				out = append(out, canon.Canonicalize(inst).Instance)
			}
		}
	}
	return out
}

// servedTotals is what solving the served corpus produced.
type servedTotals struct {
	calibrations, machines int
	pivots, resolves       int64
	nodes                  int64  // exact-search nodes, every attempt
	digest                 string // SHA-256 over the JSON schedules, in corpus order
}

// TestServedAnswersPinned pins what the served ladder answers on the
// served corpus: schedules byte for byte, the LP's pivot and re-solve
// counts, and the exact rung's search nodes. A solver change that
// claims identical answers must leave every constant here untouched,
// except that a sharper pruning bound in the exact search may lower
// nodes.
// The float64 LP rounds per architecture (arm64 and several other
// targets fuse a-f*b into one FMA; amd64 never fuses implicitly), so
// the constants hold on amd64 only.
func TestServedAnswersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("constants are recorded on amd64; %s may round the float64 LP differently", runtime.GOARCH)
	}
	var got servedTotals
	h := sha256.New()
	for i, inst := range servedCorpus(t) {
		met := calib.NewMetrics()
		sol, err := calib.SolveRobust(inst, &calib.Options{Metrics: met})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		js, err := json.Marshal(sol.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(js)
		got.calibrations += sol.Calibrations
		got.machines += sol.MachinesUsed
		got.pivots += met.Counter(obs.MLPPivots).Value()
		got.resolves += met.Counter(obs.MTISEResolves).Value()
		got.nodes += met.Counter(obs.MExactNodes).Value()
	}
	got.digest = hex.EncodeToString(h.Sum(nil))
	want := servedTotals{
		calibrations: 2219,
		machines:     1145,
		pivots:       7103,
		resolves:     38,
		nodes:        12508,
		digest:       "b1c27556f938d1d88745f167e8cc934cdf4372b7defd8ea9e165a80e5feec8a5",
	}
	if got != want {
		t.Errorf("served answers moved:\n got %+v\nwant %+v", got, want)
	}
}
