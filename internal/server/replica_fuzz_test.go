package server

import (
	"context"
	"encoding/binary"
	"reflect"
	"testing"

	"calib/api"
	"calib/internal/canon"
	"calib/internal/ise"
)

// replicaWorld is the fuzz-decoded form of one replicated cache entry:
// the instance and the wire schedule, plus how the entry's key and
// calibration count relate to them.
type replicaWorld struct {
	inst  *ise.Instance
	sched *ise.Schedule
	// key is the entry's key; keyOK replaces it with the instance's
	// canonical key, so the fuzzer reaches the checks behind it.
	key   uint64
	keyOK bool
	// countDelta is added to the schedule's calibration count to give
	// the entry's Calibrations.
	countDelta int8
}

// encode writes w in the byte layout decodeReplica reads.
func (w *replicaWorld) encode() []byte {
	var b []byte
	word := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	word(w.inst.T)
	b = append(b, byte(w.inst.M), byte(len(w.inst.Jobs)))
	for _, j := range w.inst.Jobs {
		word(j.Release)
		word(j.Deadline)
		word(j.Processing)
	}
	keyOK := byte(1)
	if w.keyOK {
		keyOK = 0
	}
	b = append(b, keyOK)
	word(int64(w.key))
	b = append(b, byte(w.countDelta), byte(w.sched.Machines), byte(w.sched.Speed-1), byte(len(w.sched.Calibrations)))
	for _, c := range w.sched.Calibrations {
		b = append(b, byte(c.Machine))
		word(c.Start)
	}
	b = append(b, byte(len(w.sched.Placements)))
	for _, p := range w.sched.Placements {
		b = append(b, byte(p.Job), byte(p.Machine))
		word(p.Start)
	}
	return b
}

// decodeReplica derives a replicaWorld from fuzz bytes. Times are full
// int64 words, so the values near ±2^63 that could wrap a check are
// one mutation away; counts and indices are single bytes, and an index
// byte may name a job or machine that does not exist.
func decodeReplica(data []byte) *replicaWorld {
	u8 := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	word := func() int64 {
		if len(data) < 8 {
			data = nil
			return 0
		}
		v := int64(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v
	}
	inst := ise.NewInstance(word(), u8())
	for n := u8() % 8; n > 0; n-- {
		r, d, p := word(), word(), word()
		inst.AddJob(r, d, p)
	}
	w := &replicaWorld{inst: inst, keyOK: u8() == 0}
	w.key = uint64(word())
	w.countDelta = int8(u8())
	w.sched = &ise.Schedule{Machines: u8(), Speed: 1 + int64(u8()%3)}
	for n := u8() % 16; n > 0; n-- {
		m := u8()
		w.sched.Calibrate(m, word())
	}
	for n := u8() % 16; n > 0; n-- {
		job, m := u8(), u8()
		w.sched.Place(job, m, word())
	}
	return w
}

// entry builds the replicated cache entry w describes.
func (w *replicaWorld) entry() *api.CacheEntry {
	key := w.key
	if w.keyOK {
		key = canon.Key(w.inst)
	}
	return &api.CacheEntry{
		Request: &api.SolveRequest{Instance: w.inst},
		Response: &api.SolveResponse{
			Key:          keyString(key),
			Schedule:     w.sched,
			Calibrations: len(w.sched.Calibrations) + int(w.countDelta),
		},
	}
}

// FuzzStoreReplica runs storeReplica, the per-entry checks behind
// both /v1/cache/entries paths, on fuzz-decoded entries. It must not
// panic, and an entry it accepts must carry its instance's canonical
// key, a stored schedule that decanonicalizes back to the wire
// schedule, and a wire schedule whose every placement lies inside its
// job's window and inside a calibration on its machine, checked here
// in forms that cannot wrap around int64.
func FuzzStoreReplica(f *testing.F) {
	srv := New(Config{})
	served := testInstance(5)
	c := canon.Canonicalize(served)
	res, err := srv.defaultSolve(context.Background(), c.Instance, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	wire := c.Decanonicalize(res.Schedule)

	// A shifted twin carries the same canonical key and schedule shape.
	twin := ise.NewInstance(served.T, served.M)
	for _, j := range served.Jobs {
		twin.AddJob(j.Release+400, j.Deadline+400, j.Processing)
	}
	shifted := wire.Clone()
	for i := range shifted.Calibrations {
		shifted.Calibrations[i].Start += 400
	}
	for i := range shifted.Placements {
		shifted.Placements[i].Start += 400
	}
	unknown := wire.Clone()
	unknown.Placements[0].Job = 7
	// A placement at 2^63-2 inside a calibration at 2^63-4, for a job
	// whose window is [0, 20).
	const top = ise.Time(1<<63 - 1)
	wraps := ise.NewInstance(10, 1)
	wraps.AddJob(0, 20, 5)
	far := ise.NewSchedule(1)
	far.Calibrate(0, top-3)
	far.Place(0, 0, top-1)

	for _, seed := range []struct {
		w      replicaWorld
		accept bool
	}{
		{replicaWorld{inst: served, sched: wire, keyOK: true}, true},
		{replicaWorld{inst: twin, sched: shifted, keyOK: true}, true},
		{replicaWorld{inst: served, sched: wire, key: c.Key ^ 1}, false},
		{replicaWorld{inst: served, sched: unknown, keyOK: true}, false},
		{replicaWorld{inst: wraps, sched: far, keyOK: true}, false},
	} {
		data := seed.w.encode()
		if _, _, ok := srv.storeReplica(new(canon.Scratch), decodeReplica(data).entry()); ok != seed.accept {
			f.Fatalf("seed %+v: accepted = %v, want %v", seed.w, ok, seed.accept)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		w := decodeReplica(data)
		var cs canon.Scratch
		gotKey, res, ok := srv.storeReplica(&cs, w.entry())
		if !ok {
			return
		}
		if want := canon.Key(w.inst); gotKey != want {
			t.Fatalf("accepted key %016x, instance's canonical key %016x", gotKey, want)
		}
		back := canon.Canonicalize(w.inst).Decanonicalize(res.Schedule)
		if !reflect.DeepEqual(back, w.sched) {
			t.Fatalf("stored schedule decanonicalizes to %+v, wire schedule %+v", back, w.sched)
		}
		T := w.inst.T
		for _, p := range w.sched.Placements {
			j := w.inst.Jobs[p.Job]
			dur := j.Processing / w.sched.Speed
			if p.Start < j.Release || p.Start > j.Deadline-dur {
				t.Fatalf("accepted %v placed at %d for %d ticks, outside its window", j, p.Start, dur)
			}
			end := p.Start + dur
			inside := false
			for _, c := range w.sched.Calibrations {
				if c.Machine == p.Machine && c.Start <= p.Start && end-T <= c.Start {
					inside = true
					break
				}
			}
			if !inside {
				t.Fatalf("accepted %v on machine %d at [%d, %d) outside every calibration", j, p.Machine, p.Start, end)
			}
		}
	})
}
