package exact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"calib/internal/canon"
	"calib/internal/decomp"
	"calib/internal/ise"
	"calib/internal/workload"
)

// ladderOptions are the options the served ladder's exact rung runs
// with (core.SolveRobust's defaults, without its Control).
var ladderOptions = Options{MaxNodes: 500_000, WarmStart: true}

// fixture builds a T = 10, m = 2 instance from (r, d, p) triples in ID
// order.
func fixture(jobs [][3]ise.Time) *ise.Instance {
	inst := ise.NewInstance(10, 2)
	for _, j := range jobs {
		inst.AddJob(j[0], j[1], j[2])
	}
	return inst
}

// fixtureA is a clustered component whose best schedule has
// ceil(W/T) + 1 = 4 calibrations: the search's incumbent is final
// early, and every later node goes to refuting 3. It expands 333 879
// nodes under the open-capacity bound and 425 522 under the plain
// work-volume bound.
func fixtureA() *ise.Instance {
	return fixture([][3]ise.Time{
		{0, 27, 4}, {6, 16, 2}, {7, 27, 1}, {9, 20, 1}, {10, 19, 2}, {10, 21, 4},
		{15, 35, 1}, {17, 23, 4}, {18, 22, 1}, {19, 21, 1}, {39, 49, 3}, {41, 61, 4},
	})
}

// fixtureB is a clustered component that the plain work-volume bound
// cannot prove within the ladder's 500 000 nodes; the open-capacity
// bound proves 6 calibrations in 68 241.
func fixtureB() *ise.Instance {
	return fixture([][3]ise.Time{
		{0, 36, 7}, {7, 14, 5}, {8, 29, 1}, {11, 27, 1}, {14, 51, 7}, {19, 40, 5},
		{25, 45, 1}, {36, 56, 1}, {41, 79, 6}, {46, 66, 1}, {47, 69, 6}, {53, 55, 1},
	})
}

// exactCorpus calls f on the components of at most 12 jobs that
// decomp.Split cuts from cold-ladder-shaped instances (the clustered,
// short, poisson and mixed families at n 8, 16 and 24, seeds 1-30,
// m = 2, T = 10, canonicalized as the service solves them), then on
// fixture A. It skips the one component the plain work-volume bound
// could not prove within the ladder's node cap (clustered, n = 24,
// seed 23, component 1): the corpus holds only answers that were
// proven before the open-capacity bound.
func exactCorpus(tb testing.TB, f func(name string, inst *ise.Instance)) {
	tb.Helper()
	for _, fam := range []string{"clustered", "short", "poisson", "mixed"} {
		for _, n := range []int{8, 16, 24} {
			for seed := 1; seed <= 30; seed++ {
				rng := rand.New(rand.NewSource(int64(1000*seed + n)))
				inst, err := workload.Family(rng, fam, workload.FamilyConfig{N: n, M: 2, T: 10})
				if err != nil {
					tb.Fatal(err)
				}
				for ci, c := range decomp.Split(canon.Canonicalize(inst).Instance) {
					if c.Inst.N() > 12 || (fam == "clustered" && n == 24 && seed == 23 && ci == 1) {
						continue
					}
					f(fmt.Sprintf("%s/n=%d/seed=%d/component=%d", fam, n, seed, ci), c.Inst)
				}
			}
		}
	}
	f("fixtureA", fixtureA())
}

// TestExactAnswersPinned pins the exact rung's answers on exactCorpus:
// 502 searches under the ladder's options, four of which took over
// 100 000 nodes under the plain work-volume bound. Every one must come
// back proven, and the digest of their calibration counts and
// schedules is the one the plain work-volume bound produced: a pruning
// bound may only skip subtrees that hold no better schedule, so it
// must not move a single answer.
func TestExactAnswersPinned(t *testing.T) {
	h := sha256.New()
	searches := 0
	exactCorpus(t, func(name string, inst *ise.Instance) {
		res, err := Solve(inst, ladderOptions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Proven {
			t.Fatalf("%s: not proven after %d nodes", name, res.Nodes)
		}
		js, err := json.Marshal(res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d\n", res.Calibrations)
		h.Write(js)
		searches++
	})
	const want = "1e99687406e8622798eaab88c0910c28eca6f94e53059d1c8ed6f69ef280d785"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || searches != 502 {
		t.Errorf("%d searches with digest %s, want 502 with %s", searches, got, want)
	}
}

// TestCappedSearchNowProven: fixture B hits the ladder's node cap
// under the plain work-volume bound; the open-capacity bound proves its
// optimum well inside it.
func TestCappedSearchNowProven(t *testing.T) {
	res, err := Solve(fixtureB(), ladderOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proven || res.Calibrations != 6 {
		t.Errorf("got proven=%v calibrations=%d after %d nodes, want a proven 6", res.Proven, res.Calibrations, res.Nodes)
	}
	if err := ise.Validate(fixtureB(), res.Schedule); err != nil {
		t.Errorf("schedule infeasible: %v", err)
	}
}
