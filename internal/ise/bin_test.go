package ise

import (
	"slices"
	"testing"
)

// FuzzBinFit checks Bin.Fit against a scan of every integer start from
// the latest down, and CanOpen against a scan of every start within T.
// The inputs build T <= 16, a bin holding up to six non-overlapping runs
// (gap and length byte pairs in runs), a job with p <= T, the bound
// notBefore, and the starts of up to six other calibrations on the
// bin's machine (starts, offsets from the bin's start).
func FuzzBinFit(f *testing.F) {
	f.Add(uint8(8), int8(0), []byte{1, 2, 0, 3}, int8(-3), uint8(20), uint8(2), int8(0), []byte{10, 200})
	f.Add(uint8(14), int8(-5), []byte{0, 5, 4, 1, 0, 1}, int8(0), uint8(3), uint8(9), int8(2), []byte{16, 240, 20})
	f.Add(uint8(0), int8(100), []byte{}, int8(100), uint8(0), uint8(1), int8(101), []byte{2, 254})
	f.Fuzz(func(t *testing.T, tRaw uint8, start int8, runs []byte, release int8, slack, pRaw uint8, notBefore int8, starts []byte) {
		T := Time(2 + tRaw%15)
		b := &Bin{Start: Time(start)}
		at := b.Start
		for k := 0; k+1 < len(runs) && len(b.Runs) < 6; k += 2 {
			s := at + Time(runs[k])%(T/2+1)
			e := s + 1 + Time(runs[k+1])%T
			if e > b.Start+T {
				break
			}
			b.Add(Run{Job: len(b.Runs), Start: s, End: e})
			at = e
		}
		p := 1 + Time(pRaw)%T
		j := Job{ID: len(b.Runs), Release: Time(release), Processing: p}
		j.Deadline = j.Release + p + Time(slack%32)
		nb := Time(notBefore)

		wantS, wantOK := Time(0), false
		for s := b.Start + T - p; s >= b.Start && !wantOK; s-- {
			free := s >= nb && s >= j.Release && s+p <= j.Deadline
			for _, r := range b.Runs {
				free = free && (s+p <= r.Start || r.End <= s)
			}
			if free {
				wantS, wantOK = s, true
			}
		}
		gotS, gotOK := b.Fit(T, j, nb)
		if gotS != wantS || gotOK != wantOK {
			t.Fatalf("Fit(T=%d, %v, notBefore=%d) on %+v = %d, %v; want %d, %v", T, j, nb, b, gotS, gotOK, wantS, wantOK)
		}
		if gotOK {
			load := b.Load()
			before := slices.Clone(b.Runs)
			r := Run{Job: j.ID, Start: gotS, End: gotS + p}
			b.Add(r)
			if b.Load() != load+p || !slices.IsSortedFunc(b.Runs, func(x, y Run) int { return int(x.Start - y.Start) }) {
				t.Fatalf("Add(%+v) left %+v", r, b.Runs)
			}
			b.Remove(r)
			if !slices.Equal(b.Runs, before) {
				t.Fatalf("Remove(%+v) left %+v, want %+v", r, b.Runs, before)
			}
		}

		bins := []*Bin{b}
		for _, off := range starts[:min(len(starts), 6)] {
			bins = append(bins, &Bin{Start: b.Start + Time(int8(off))})
		}
		want := true
		for x := nb - T + 1; x < nb+T; x++ {
			for _, o := range bins {
				want = want && o.Start != x
			}
		}
		if got := CanOpen(bins, nb, T); got != want {
			t.Fatalf("CanOpen(starts within T=%d of %d) = %v, want %v", T, nb, got, want)
		}
	})
}
