package calib_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"testing"

	"calib/internal/core"
	"calib/internal/decomp"
	"calib/internal/heur"
	"calib/internal/improve"
	"calib/internal/ise"
	"calib/internal/online"
	"calib/internal/tise"
)

// digestSchedule writes s (or err) to h. canonical sorts a copy first,
// for producers whose calibration or placement order carries no
// meaning.
func digestSchedule(tb testing.TB, h hash.Hash, s *ise.Schedule, err error, canonical bool) {
	tb.Helper()
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	if canonical {
		s = s.Clone()
		s.SortCanonical()
	}
	js, err := json.Marshal(s)
	if err != nil {
		tb.Fatal(err)
	}
	h.Write(js)
	h.Write([]byte{'\n'})
}

// TestGreedyAnswersPinned pins the answers of the calibration-packing
// code beside the paper's pipeline on familyCorpus's 432 instances:
// heur.Lazy under every order, opening and machine cap, and on every
// decomp.Split component under the exact rung's warm-start options;
// improve.Run, and ise.Compact before and after it, on heur.Lazy's
// and core.Solve's answers; online.Lazy; and tise.TransformToTISE on
// heur.Lazy's answer for each instance's long-window part. Compact's
// and TransformToTISE's schedules are digested in canonical order. A
// refactor of the packing model must leave every digest untouched. The core.Solve digest depends on the float64 LP,
// which rounds per architecture, so it is checked on amd64 only.
func TestGreedyAnswersPinned(t *testing.T) {
	parts := []string{"heur", "warm", "improve", "online", "compact", "tise", "core"}
	hs := map[string]hash.Hash{}
	for _, p := range parts {
		hs[p] = sha256.New()
	}
	amd64 := runtime.GOARCH == "amd64"
	for _, inst := range familyCorpus(t, 12) {
		for _, order := range []heur.Order{heur.DeadlineOrder, heur.ReleaseOrder, heur.SlackOrder} {
			for _, open := range []heur.Opening{heur.LazyOpening, heur.EagerOpening} {
				for _, mm := range []int{0, inst.M} {
					s, err := heur.Lazy(inst, heur.Options{MaxMachines: mm, Order: order, Opening: open})
					digestSchedule(t, hs["heur"], s, err, false)
				}
			}
		}
		for _, c := range decomp.Split(inst) {
			s, err := heur.Lazy(c.Inst, heur.Options{MaxMachines: c.Inst.M})
			digestSchedule(t, hs["warm"], s, err, false)
		}
		lazy, err := heur.Lazy(inst, heur.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// postPass digests improve.Run's answer on s into improved, and
		// ise.Compact's on s and on that answer into compacted.
		postPass := func(improved, compacted hash.Hash, s *ise.Schedule) {
			c, err := ise.Compact(inst, s)
			digestSchedule(t, compacted, c, err, true)
			r, err := improve.Run(inst, s)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(improved, "removed %d passes %d\n", r.Removed, r.Passes)
			digestSchedule(t, improved, r.Schedule, nil, false)
			c, err = ise.Compact(inst, r.Schedule)
			digestSchedule(t, compacted, c, err, true)
		}
		postPass(hs["improve"], hs["compact"], lazy)
		if amd64 {
			res, err := core.Solve(inst, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			postPass(hs["core"], hs["core"], res.Schedule)
		}
		s, err := online.Lazy(inst)
		digestSchedule(t, hs["online"], s, err, false)
		if long, _, _, _ := inst.Partition(); long.N() > 0 {
			src, err := heur.Lazy(long, heur.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := tise.TransformToTISE(long, src)
			digestSchedule(t, hs["tise"], s, err, true)
		}
	}
	want := map[string]string{
		"heur":    "b636c5869462694cb7b12789fd19a1e22b3e659d26a2e0cba682dd321b15d96b",
		"warm":    "fa41151b3558fcce6a41c1cf8b9c00f84522b3c4ad33ab6558e18ab3a065437a",
		"improve": "aa1d910ccd28219c6746841f3efcf01631adbe6875a43fff33b962ef7ab4b98c",
		"online":  "c1cdc199e08dee4c53bd77247d5f3544156318178bb9ceddb7c4235469b9e245",
		"compact": "a1c2a97d1d647d94a111a032d78194375afa65ff62573b1c27c72c01784dad09",
		"tise":    "088ac8eea5b7197723ffeafd1c63cb2a06d642b8b8dc0e34806803f1de1f8073",
		"core":    "1edf5952d821847f91064fd1486c2121fa04967dbb378bea4f1d6c4904e65812",
	}
	for _, p := range parts {
		if p == "core" && !amd64 {
			continue
		}
		if got := hex.EncodeToString(hs[p].Sum(nil)); got != want[p] {
			t.Errorf("%s digest %s, want %s", p, got, want[p])
		}
	}
}
