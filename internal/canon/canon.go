// Package canon canonicalizes ISE instances so that equivalent
// instances — equal up to a permutation of their job list and a
// uniform translation of all windows in time — map to one canonical
// form and one stable 64-bit key. The serving layer (internal/cache,
// internal/server) and the batch runner key their schedule caches on
// that hash, and the inverse mapping turns a schedule for the
// canonical instance back into a schedule for the original.
//
// Two instances share a canonical key iff they have the same T, the
// same machine budget M, and the same multiset of job shapes
// (release, deadline, processing) after translating the earliest
// release to 0. Both transformations are exact similarity transforms
// of the problem (see ise.Instance.Shift and the job-ID remapping of
// ise.Schedule.RenumberJobs): schedules correspond one-to-one with
// identical calibration and machine counts, so replaying a cached
// canonical schedule through Decanonicalize loses nothing. The
// metamorphic suite in canon_test.go asserts exactly that.
//
// The key is FNV-1a over the canonical byte serialization. It is a
// content hash, not a cryptographic MAC: collisions are astronomically
// unlikely but not adversarially hard, which is the right trade for a
// cache key (a collision yields a wrong schedule that the server's
// final ise.Validate pass rejects — fail safe, not fail silent).
package canon

import (
	"fmt"
	"sort"

	"calib/internal/ise"
)

// Canonical is an instance in canonical form plus the mapping back to
// the original instance it was derived from.
type Canonical struct {
	// Instance is the canonical form: jobs sorted by (release,
	// deadline, processing), releases translated so the earliest is 0,
	// IDs renumbered to match the sorted order.
	Instance *ise.Instance
	// Key is the 64-bit content hash of the canonical form.
	Key uint64
	// Shift is the translation that was subtracted: original release =
	// canonical release + Shift.
	Shift ise.Time
	// OriginalIDs maps a canonical job ID (= index) to the job's ID in
	// the original instance.
	OriginalIDs []int
}

// Canonicalize builds the canonical form of inst. The input is not
// modified. Jobs with identical (release, deadline, processing) are
// interchangeable; ties keep input order so the mapping stays a
// bijection.
//
// The returned Canonical owns its memory; hot paths that canonicalize
// per request should use a pooled Scratch instead.
func Canonicalize(inst *ise.Instance) *Canonical {
	var s Scratch
	c := s.Canonicalize(inst)
	return &Canonical{
		Instance:    c.Instance.Clone(),
		Key:         c.Key,
		Shift:       c.Shift,
		OriginalIDs: append([]int(nil), c.OriginalIDs...),
	}
}

// Scratch is a reusable canonicalization arena for hot paths (the
// serving layer canonicalizes every request before its cache lookup).
// Canonicalize on a Scratch performs no allocation once the arena has
// grown to the working instance size; the returned Canonical and its
// Instance point into the Scratch and are valid only until the next
// Canonicalize call on it. The zero value is ready to use.
type Scratch struct {
	c    Canonical
	inst ise.Instance
	sort jobOrder
}

// jobOrder sorts an index permutation by job shape. It implements
// sort.Interface on preallocated state so sort.Stable runs without the
// closure and swapper allocations of sort.SliceStable.
type jobOrder struct {
	jobs  []ise.Job
	order []int
}

func (o *jobOrder) Len() int      { return len(o.order) }
func (o *jobOrder) Swap(a, b int) { o.order[a], o.order[b] = o.order[b], o.order[a] }
func (o *jobOrder) Less(a, b int) bool {
	ja, jb := o.jobs[o.order[a]], o.jobs[o.order[b]]
	if ja.Release != jb.Release {
		return ja.Release < jb.Release
	}
	if ja.Deadline != jb.Deadline {
		return ja.Deadline < jb.Deadline
	}
	return ja.Processing < jb.Processing
}

// Canonicalize is the allocation-free Canonicalize: identical output
// (same canonical form, same key) but backed by the Scratch's arena.
func (s *Scratch) Canonicalize(inst *ise.Instance) *Canonical {
	n := len(inst.Jobs)
	if cap(s.sort.order) < n {
		s.sort.order = make([]int, n)
	}
	order := s.sort.order[:n]
	for i := range order {
		order[i] = i
	}
	s.sort.jobs, s.sort.order = inst.Jobs, order
	// order starts as the identity, so stability preserves input order
	// among identical job shapes — the tie rule of Canonicalize.
	sort.Stable(&s.sort)
	var shift ise.Time
	if n > 0 {
		shift = inst.Jobs[order[0]].Release
	}
	s.inst.T, s.inst.M = inst.T, inst.M
	if cap(s.inst.Jobs) < n {
		s.inst.Jobs = make([]ise.Job, 0, n)
	}
	s.inst.Jobs = s.inst.Jobs[:0]
	if cap(s.c.OriginalIDs) < n {
		s.c.OriginalIDs = make([]int, 0, n)
	}
	ids := s.c.OriginalIDs[:0]
	for k, idx := range order {
		j := inst.Jobs[idx]
		s.inst.Jobs = append(s.inst.Jobs, ise.Job{
			ID:         k,
			Release:    j.Release - shift,
			Deadline:   j.Deadline - shift,
			Processing: j.Processing,
		})
		ids = append(ids, j.ID)
	}
	s.c = Canonical{
		Instance:    &s.inst,
		Key:         hashInstance(&s.inst),
		Shift:       shift,
		OriginalIDs: ids,
	}
	return &s.c
}

// Key returns the canonical key of inst without retaining the
// canonical form. Equal up to job permutation and uniform time shift
// implies equal keys.
func Key(inst *ise.Instance) uint64 { return Canonicalize(inst).Key }

// Decanonicalize maps a schedule for the canonical instance back to a
// schedule for the original instance: every calibration and placement
// is translated by +Shift and placement job IDs are rewritten through
// OriginalIDs. A placement of a job the canonical instance lacks gets
// job ID -1, which ise.Validate rejects: a cached schedule is input,
// and a bad one must fail validation rather than crash its reader. The
// input schedule is not modified.
func (c *Canonical) Decanonicalize(s *ise.Schedule) *ise.Schedule {
	out := s.Clone()
	for i := range out.Calibrations {
		out.Calibrations[i].Start += c.Shift
	}
	for i := range out.Placements {
		p := &out.Placements[i]
		p.Start += c.Shift
		if uint(p.Job) < uint(len(c.OriginalIDs)) {
			p.Job = c.OriginalIDs[p.Job]
		} else {
			p.Job = -1
		}
	}
	return out
}

// Recanonicalize is the exact inverse of Decanonicalize: it maps a
// schedule in the original instance's frame into the canonical frame
// by translating every calibration and placement by -Shift and
// rewriting placement job IDs from original back to canonical through
// the inverted OriginalIDs mapping. The fleet's replication path uses
// it to turn a wire response (original frame, as served to the client)
// back into the canonical-frame entry the schedule cache stores. The
// input schedule is not modified. An original job ID that does not
// appear in OriginalIDs reports an error rather than fabricating a
// canonical ID — a replicated response that does not match its
// instance must be rejected, not stored.
func (c *Canonical) Recanonicalize(s *ise.Schedule) (*ise.Schedule, error) {
	toCanonical := make(map[int]int, len(c.OriginalIDs))
	for canonID, origID := range c.OriginalIDs {
		toCanonical[origID] = canonID
	}
	out := s.Clone()
	for i := range out.Calibrations {
		out.Calibrations[i].Start -= c.Shift
	}
	for i := range out.Placements {
		out.Placements[i].Start -= c.Shift
		canonID, ok := toCanonical[out.Placements[i].Job]
		if !ok {
			return nil, fmt.Errorf("canon: schedule places unknown job %d", out.Placements[i].Job)
		}
		out.Placements[i].Job = canonID
	}
	return out, nil
}

// FNV-1a parameters (offset basis and prime of the 64-bit variant),
// inlined so hashing allocates no hash.Hash state on the hot path.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvWord folds the little-endian bytes of v into an FNV-1a state —
// byte-for-byte identical to writing the 8-byte LE encoding into
// hash/fnv's New64a, so keys are stable across the inlining.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= (v >> i) & 0xff
		h *= fnvPrime64
	}
	return h
}

// hashInstance is FNV-1a over a fixed-width little-endian
// serialization of the canonical instance. A leading version tag keeps
// the key stable across releases unless the serialization itself
// changes (bump the tag when it does, so stale persisted keys cannot
// alias).
func hashInstance(inst *ise.Instance) uint64 {
	h := fnvWord(fnvOffset64, canonVersion)
	h = fnvWord(h, uint64(inst.T))
	h = fnvWord(h, uint64(inst.M))
	h = fnvWord(h, uint64(len(inst.Jobs)))
	for _, j := range inst.Jobs {
		h = fnvWord(h, uint64(j.Release))
		h = fnvWord(h, uint64(j.Deadline))
		h = fnvWord(h, uint64(j.Processing))
	}
	return h
}

// canonVersion tags the serialization format hashed above.
const canonVersion = 1
