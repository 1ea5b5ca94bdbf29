// Package ise defines the core model of the Integrated Stockpile
// Evaluation (ISE) problem from Fineman & Sheridan (SPAA 2015):
// jobs with release times, deadlines, and processing times must be
// scheduled nonpreemptively on identical machines such that every job
// runs entirely inside a calibrated interval, minimizing the total
// number of calibrations.
//
// The package provides the instance and schedule types shared by every
// algorithm in this repository, the feasibility validator that serves
// as ground truth in tests, and exact instance transformations
// (scaling, window classification) used by the algorithms.
//
// Time is measured in integer ticks (int64). The paper permits
// non-integral times; integral ticks lose no generality (rational
// inputs can be scaled) and keep every schedule-level transformation
// exact.
package ise

import (
	"fmt"
	"sort"
)

// Time is the integer tick type used for all schedule-level quantities.
type Time = int64

// Job is a single job of an ISE instance. A job must be scheduled
// nonpreemptively for Processing consecutive ticks, within the window
// [Release, Deadline), entirely inside one calibrated interval.
type Job struct {
	// ID identifies the job within its instance. NewInstance assigns
	// IDs equal to the job's index.
	ID int `json:"id"`
	// Release is the earliest tick at which the job may start.
	Release Time `json:"release"`
	// Deadline is the tick by which the job must have completed.
	Deadline Time `json:"deadline"`
	// Processing is the number of ticks the job occupies a machine at
	// unit speed. Must satisfy 0 < Processing <= T.
	Processing Time `json:"processing"`
}

// WindowLength returns Deadline - Release.
func (j Job) WindowLength() Time { return j.Deadline - j.Release }

// Slack returns the scheduling slack Deadline - Release - Processing.
func (j Job) Slack() Time { return j.Deadline - j.Release - j.Processing }

// IsLong reports whether the job is a long-window job for calibration
// length T, i.e. Deadline - Release >= 2T (Definition 1 of the paper).
func (j Job) IsLong(T Time) bool { return j.WindowLength() >= 2*T }

// String renders the job as "job 3 [r=0,d=10,p=4)".
func (j Job) String() string {
	return fmt.Sprintf("job %d [r=%d,d=%d,p=%d)", j.ID, j.Release, j.Deadline, j.Processing)
}

// Instance is a full ISE problem instance.
type Instance struct {
	// T is the calibration length: a calibration performed at time t
	// keeps a machine usable during [t, t+T). The paper requires T >= 2.
	T Time `json:"t"`
	// M is the number of machines the optimal solution is allowed to
	// use. Approximation algorithms may exceed M (machine
	// augmentation); the validator checks against the schedule's own
	// machine count, while experiments compare it to M.
	M int `json:"m"`
	// Jobs is the job set. Job IDs must equal indices.
	Jobs []Job `json:"jobs"`
}

// NewInstance returns an instance with calibration length t, m
// machines, and no jobs.
func NewInstance(t Time, m int) *Instance {
	return &Instance{T: t, M: m}
}

// AddJob appends a job with the given window and processing time,
// assigning the next ID, and returns that ID.
func (in *Instance) AddJob(release, deadline, processing Time) int {
	id := len(in.Jobs)
	in.Jobs = append(in.Jobs, Job{ID: id, Release: release, Deadline: deadline, Processing: processing})
	return id
}

// N returns the number of jobs.
func (in *Instance) N() int { return len(in.Jobs) }

// MaxTime bounds the times an instance may carry, so that no time
// expression the solvers form can wrap around int64. The largest such
// expression is a potential calibration point r_j + k·T with k up to
// the job count n (tise.CalibrationPoints). Validate therefore requires
// T·(n+1) <= MaxTime, every release and deadline in [-MaxTime,
// MaxTime], and the latest deadline at most MaxTime after the earliest
// release, so the canonical form (earliest release shifted to 0)
// validates too. Every point then stays within 2·MaxTime, and the
// short-window interval ends t + 2γT (γ = 2, t <= r_j) within
// 3·MaxTime, below the ±2^60 "before every tick" sentinels of the MM
// boxes and far below 2^63.
const MaxTime Time = 1 << 58

// Validate checks that the instance is well-formed per the problem
// definition: T >= 2, M >= 1, and for every job 0 < p_j <= T and
// d_j >= r_j + p_j, with IDs equal to indices; and that its times
// respect MaxTime.
func (in *Instance) Validate() error {
	if in.T < 2 {
		return fmt.Errorf("ise: calibration length T=%d, want >= 2", in.T)
	}
	if in.M < 1 {
		return fmt.Errorf("ise: machine count M=%d, want >= 1", in.M)
	}
	if in.T > MaxTime/Time(len(in.Jobs)+1) {
		return fmt.Errorf("ise: calibration length T=%d with %d jobs, want T*(n+1) <= %d", in.T, len(in.Jobs), MaxTime)
	}
	var lo, hi Time
	for i, j := range in.Jobs {
		if j.ID != i {
			return fmt.Errorf("ise: job at index %d has ID %d", i, j.ID)
		}
		if j.Release < -MaxTime || j.Release > MaxTime || j.Deadline < -MaxTime || j.Deadline > MaxTime {
			return fmt.Errorf("ise: %v has a time outside [-%d, %d]", j, MaxTime, MaxTime)
		}
		if i == 0 || j.Release < lo {
			lo = j.Release
		}
		if i == 0 || j.Deadline > hi {
			hi = j.Deadline
		}
		if j.Processing <= 0 {
			return fmt.Errorf("ise: %v has non-positive processing time", j)
		}
		if j.Processing > in.T {
			return fmt.Errorf("ise: %v has processing time exceeding T=%d", j, in.T)
		}
		if j.Deadline < j.Release+j.Processing {
			return fmt.Errorf("ise: %v has window shorter than its processing time", j)
		}
	}
	if hi-lo > MaxTime {
		return fmt.Errorf("ise: jobs span %d ticks, want <= %d", hi-lo, MaxTime)
	}
	return nil
}

// Partition splits the instance into its long-window and short-window
// sub-instances (Definition 1, threshold 2T). Each sub-instance keeps
// the original T and M; job IDs are renumbered to be contiguous, and
// the returned index slices map new IDs back to original IDs.
func (in *Instance) Partition() (long, short *Instance, longIDs, shortIDs []int) {
	return in.PartitionAt(2 * in.T)
}

// PartitionAt is Partition with an explicit window-length threshold:
// jobs with Deadline - Release >= thresh go to the long side. The
// paper's Section 3 remarks that thresholds above 2T remain valid for
// the long-window algorithm while weakening the short-window bounds;
// thresh must be >= 2T for that to hold.
func (in *Instance) PartitionAt(thresh Time) (long, short *Instance, longIDs, shortIDs []int) {
	long = NewInstance(in.T, in.M)
	short = NewInstance(in.T, in.M)
	for _, j := range in.Jobs {
		if j.WindowLength() >= thresh {
			long.AddJob(j.Release, j.Deadline, j.Processing)
			longIDs = append(longIDs, j.ID)
		} else {
			short.AddJob(j.Release, j.Deadline, j.Processing)
			shortIDs = append(shortIDs, j.ID)
		}
	}
	return long, short, longIDs, shortIDs
}

// Scale returns a copy of the instance with every time quantity
// (T, releases, deadlines, processing times) multiplied by k > 0.
// Scaling is a similarity transform: schedules for the scaled instance
// correspond one-to-one with schedules of the original, with identical
// calibration and machine counts.
func (in *Instance) Scale(k Time) *Instance {
	if k <= 0 {
		panic(fmt.Sprintf("ise: Scale factor %d, want > 0", k))
	}
	out := NewInstance(in.T*k, in.M)
	for _, j := range in.Jobs {
		out.AddJob(j.Release*k, j.Deadline*k, j.Processing*k)
	}
	return out
}

// Shift returns a copy of the instance with every release and
// deadline translated by delta (T and processing times unchanged).
// Translation is a similarity transform: schedules correspond
// one-to-one with identical calibration and machine counts.
func (in *Instance) Shift(delta Time) *Instance {
	out := NewInstance(in.T, in.M)
	for _, j := range in.Jobs {
		out.AddJob(j.Release+delta, j.Deadline+delta, j.Processing)
	}
	return out
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := NewInstance(in.T, in.M)
	out.Jobs = append(out.Jobs, in.Jobs...)
	return out
}

// WithM returns a shallow copy of the instance with M replaced.
func (in *Instance) WithM(m int) *Instance {
	out := in.Clone()
	out.M = m
	return out
}

// TotalWork returns the sum of processing times.
func (in *Instance) TotalWork() Time {
	var w Time
	for _, j := range in.Jobs {
		w += j.Processing
	}
	return w
}

// Span returns the time horizon [minRelease, maxDeadline) of the
// instance. An empty instance spans [0, 0).
func (in *Instance) Span() (lo, hi Time) {
	if len(in.Jobs) == 0 {
		return 0, 0
	}
	lo, hi = in.Jobs[0].Release, in.Jobs[0].Deadline
	for _, j := range in.Jobs[1:] {
		if j.Release < lo {
			lo = j.Release
		}
		if j.Deadline > hi {
			hi = j.Deadline
		}
	}
	return lo, hi
}

// ReleaseTimes returns the sorted, deduplicated set of release times.
func (in *Instance) ReleaseTimes() []Time {
	set := make(map[Time]struct{}, len(in.Jobs))
	for _, j := range in.Jobs {
		set[j.Release] = struct{}{}
	}
	out := make([]Time, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
