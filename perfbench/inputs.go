package main

import (
	"fmt"
	"math"
	"math/rand"

	"calib/internal/canon"
	"calib/internal/ise"
	families "calib/internal/workload"
)

// Instance shape shared by every workload: two machines and T = 10, the
// sizes at which the whole exact→LP→heuristic ladder is exercised
// without n=80 long-window solves (0.6–1 s each) dominating a run.
const (
	machines = 2
	calLen   = 10
)

// cell is one (family, size) stratum of the input matrix.
type cell struct {
	family string
	n      int
}

func grid(names []string, sizes []int) []cell {
	var cells []cell
	for _, f := range names {
		for _, n := range sizes {
			cells = append(cells, cell{f, n})
		}
	}
	return cells
}

// request is one measured /v1/solve call.
type request struct {
	inst *ise.Instance
	key  uint64
	// twin marks a twin of a setup instance: it must be answered from
	// the cache and never solved.
	twin bool
}

// inputs is everything a workload sends, generated from the seed and
// corpusSeed alone.
type inputs struct {
	// setup is solved before the first measured request: the warm-up
	// set or the base set the twins are drawn from.
	setup []request
	// n is the number of measured requests and segment materializes
	// requests [lo, hi) of the fixed measured list.
	n       int
	segment func(lo, hi int) []request
}

// segments calls f on consecutive runs of size measured requests (one
// run when size <= 0), with each run's offset in the list.
func (in *inputs) segments(size int, f func(lo int, reqs []request) error) error {
	if size <= 0 {
		size = in.n
	}
	for lo := 0; lo < in.n; lo += size {
		if err := f(lo, in.segment(lo, min(lo+size, in.n))); err != nil {
			return err
		}
	}
	return nil
}

// splitmix is the SplitMix64 generator: a cheap, seedable stream for
// per-request choices that must not depend on generation order.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stream derives an independent generator for (seed, purpose, index).
func stream(seed int64, purpose, index uint64) splitmix {
	s := splitmix(uint64(seed))
	s = splitmix(s.next() ^ purpose*0x2545f4914f6cdd1d)
	return splitmix(s.next() ^ index)
}

// Generator purposes: each list a workload builds draws from its own
// streams, so changing the size of one list never reshuffles another.
const (
	purposeWarm = iota + 1
	purposeMeasured
	purposeBase
	purposeFresh
	purposeTwin
	purposeOrder
)

// maxRepeats is how many consecutive duplicate keys retire a cell: the
// partition gadget has only a few hundred distinct shapes at T = 10.
const maxRepeats = 64

// draw returns count instances whose canonical keys are pairwise
// distinct and absent from seen (which it extends), drawn round-robin
// over the cells so every stratum is represented equally while it lasts.
func draw(seed int64, purpose uint64, cells []cell, count int, seen map[uint64]bool) ([]request, error) {
	rngs := make([]*rand.Rand, len(cells))
	for i := range cells {
		s := stream(seed, purpose, uint64(i))
		rngs[i] = rand.New(rand.NewSource(int64(s.next() >> 1)))
	}
	live := make([]int, len(cells))
	for i := range live {
		live[i] = i
	}
	out := make([]request, 0, count)
	for len(out) < count {
		if len(live) == 0 {
			return nil, fmt.Errorf("input cells exhausted after %d of %d distinct instances", len(out), count)
		}
		next := live[:0]
		for _, ci := range live {
			if len(out) == count {
				next = append(next, ci)
				continue
			}
			c := cells[ci]
			added := false
			for try := 0; try < maxRepeats; try++ {
				inst, err := families.Family(rngs[ci], c.family, families.FamilyConfig{N: c.n, M: machines, T: calLen})
				if err != nil {
					return nil, err
				}
				key := canon.Key(inst)
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, request{inst: inst, key: key})
				added = true
				break
			}
			if added {
				next = append(next, ci)
			}
		}
		live = next
	}
	return out, nil
}

// shuffle permutes reqs with a seeded Fisher–Yates pass.
func shuffle(reqs []request, s splitmix) {
	for i := len(reqs) - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
}

// twin returns an equivalent instance: the base's jobs in a seeded
// order with every window shifted by a seeded offset. Canonicalization
// maps it back to the base's key.
func twin(base *ise.Instance, s *splitmix) *ise.Instance {
	n := len(base.Jobs)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	shift := ise.Time(1 + s.next()%1000)
	out := &ise.Instance{T: base.T, M: base.M, Jobs: make([]ise.Job, n)}
	for i, p := range perm {
		j := base.Jobs[p]
		out.Jobs[i] = ise.Job{ID: i, Release: j.Release + shift, Deadline: j.Deadline + shift, Processing: j.Processing}
	}
	return out
}

// twinOf draws measured request i as a twin of a seeded base instance.
func twinOf(seed int64, base []request, i int) request {
	s := stream(seed, purposeTwin, uint64(i))
	b := base[s.next()%uint64(len(base))]
	return request{inst: twin(b.inst, &s), key: b.key, twin: true}
}

// Input matrices. Cold-ladder covers every family at every size. The
// warm-up uses only families that answer in well under a millisecond.
// The twin base set spans all families at the sizes whose schedules the
// hot path must decode, validate and encode. Fleet-mixed's fresh writes
// come from families whose solve cost is low and narrow.
var (
	coldCells  = grid(families.FamilyNames, []int{8, 16, 24, 40})
	warmCells  = grid([]string{"stockpile", "crossing", "clustered"}, []int{8, 16})
	baseCells  = grid(families.FamilyNames, []int{16, 24, 40})
	freshCells = grid([]string{"stockpile", "crossing"}, []int{24})
)

const (
	// corpusSeed generates the instances that are solved and that
	// dominate a run's cost: cold-ladder's warm-up and measured corpus
	// and the twins' base set. The exact rung's search cost is heavy
	// tailed: two 3200-instance corpora drawn from different seeds spent
	// 5.7 and 13.4 s in it. A fixed corpus keeps runs comparable, and
	// --seed picks the order and the traffic over it.
	corpusSeed = 20150613
	warmCount  = 36
	// basePerCell twins per cell of baseCells make up the base set.
	basePerCell = 4
	// twinShare of fleet-mixed's requests are reads of the base set.
	twinShare = 0.7
)

// coldInputs: a warm-up of distinct instances, then n measured
// instances in a seeded shuffle, no canonical key ever repeated.
func coldInputs(seed int64, n int) (*inputs, error) {
	seen := map[uint64]bool{}
	warm, err := draw(corpusSeed, purposeWarm, warmCells, warmCount, seen)
	if err != nil {
		return nil, err
	}
	measured, err := draw(corpusSeed, purposeMeasured, coldCells, n, seen)
	if err != nil {
		return nil, err
	}
	shuffle(measured, stream(seed, purposeMeasured, math.MaxUint64))
	return &inputs{setup: warm, n: n, segment: func(lo, hi int) []request { return measured[lo:hi] }}, nil
}

// hotInputs: a base set solved in setup, then n twins generated per
// segment so memory stays bounded at tens of thousands of requests.
func hotInputs(seed int64, n int) (*inputs, error) {
	base, err := draw(corpusSeed, purposeBase, baseCells, basePerCell*len(baseCells), map[uint64]bool{})
	if err != nil {
		return nil, err
	}
	return &inputs{setup: base, n: n, segment: func(lo, hi int) []request {
		out := make([]request, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, twinOf(seed, base, i))
		}
		return out
	}}, nil
}

// fleetInputs: the base set again, then n requests in a seeded order,
// twinShare of them twins and the rest fresh instances.
func fleetInputs(seed int64, n int) (*inputs, error) {
	seen := map[uint64]bool{}
	base, err := draw(corpusSeed, purposeBase, baseCells, basePerCell*len(baseCells), seen)
	if err != nil {
		return nil, err
	}
	nTwins := int(math.Round(twinShare * float64(n)))
	fresh, err := draw(seed, purposeFresh, freshCells, n-nTwins, seen)
	if err != nil {
		return nil, err
	}
	reqs := make([]request, 0, n)
	for i := 0; i < nTwins; i++ {
		reqs = append(reqs, twinOf(seed, base, i))
	}
	reqs = append(reqs, fresh...)
	shuffle(reqs, stream(seed, purposeOrder, 0))
	return &inputs{setup: base, n: n, segment: func(lo, hi int) []request { return reqs[lo:hi] }}, nil
}
