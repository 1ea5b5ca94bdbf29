package ise

import (
	"fmt"
	"slices"
	"sort"
)

// Run is one job's execution inside a Bin: it occupies [Start, End).
type Run struct {
	Job        int
	Start, End Time
}

// Bin is one calibration, [Start, Start+T) on Machine, with the runs of
// the jobs it hosts, sorted by start. It is the packing model the
// greedy schedulers share (heur, improve, online) and the unit Compact
// moves between machines.
type Bin struct {
	Machine int
	Start   Time
	Runs    []Run
}

// Fit returns the latest start at or after notBefore at which job j
// lies inside the calibration, inside its window and inside a free gap
// between the bin's runs, and whether one exists.
func (b *Bin) Fit(T Time, j Job, notBefore Time) (Time, bool) {
	lo := max(b.Start, j.Release, notBefore)
	hi := min(b.Start+T, j.Deadline)
	if hi-lo < j.Processing {
		return 0, false
	}
	// Scan the gaps from the back: the first one that fits holds the
	// latest start.
	gapEnd := hi
	for k := len(b.Runs) - 1; k >= -1; k-- {
		gapStart := lo
		if k >= 0 {
			gapStart = max(b.Runs[k].End, lo)
		}
		if gapEnd-gapStart >= j.Processing {
			return gapEnd - j.Processing, true
		}
		if k < 0 || b.Runs[k].Start <= lo {
			break
		}
		gapEnd = min(b.Runs[k].Start, hi)
	}
	return 0, false
}

// Add inserts r, keeping the runs sorted by start.
func (b *Bin) Add(r Run) {
	i := sort.Search(len(b.Runs), func(i int) bool { return b.Runs[i].Start > r.Start })
	b.Runs = slices.Insert(b.Runs, i, r)
}

// Remove deletes the run equal to r, if the bin holds one.
func (b *Bin) Remove(r Run) {
	if i := slices.Index(b.Runs, r); i >= 0 {
		b.Runs = slices.Delete(b.Runs, i, i+1)
	}
}

// Load returns the bin's busy time, the sum of its runs' lengths.
func (b *Bin) Load() Time {
	var w Time
	for _, r := range b.Runs {
		w += r.End - r.Start
	}
	return w
}

// CanOpen reports whether a calibration may start at s on the machine
// that holds bins: no calibration there starts within T of s.
func CanOpen(bins []*Bin, s, T Time) bool {
	for _, b := range bins {
		if d := s - b.Start; d > -T && d < T {
			return false
		}
	}
	return true
}

// BinsOf splits s into its calibrations, in s.Calibrations order, each
// holding the runs of the placements it contains. Every placement must
// lie in a calibration on its machine, as in a feasible schedule.
func BinsOf(inst *Instance, s *Schedule) ([]*Bin, error) {
	bins := make([]*Bin, len(s.Calibrations))
	index := make(map[Calibration]*Bin, len(s.Calibrations))
	for i, c := range s.Calibrations {
		bins[i] = &Bin{Machine: c.Machine, Start: c.Start}
		index[c] = bins[i]
	}
	calsByM := s.CalibrationsByMachine()
	for _, p := range s.Placements {
		j := inst.Jobs[p.Job]
		end := p.Start + j.Processing/s.Speed
		start, ok := ContainingCalibration(calsByM[p.Machine], p.Start, end, inst.T)
		if !ok {
			return nil, fmt.Errorf("ise: %v at %d on machine %d has no containing calibration", j, p.Start, p.Machine)
		}
		index[Calibration{Machine: p.Machine, Start: start}].Add(Run{Job: p.Job, Start: p.Start, End: end})
	}
	return bins, nil
}
