package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"calib/internal/fault"
	"calib/internal/obs"
)

// Identity codec for []byte-valued caches.
func encBytes(v []byte) ([]byte, error) { return v, nil }
func decBytes(b []byte) ([]byte, error) { return append([]byte(nil), b...), nil }
func val(i int) []byte                  { return []byte("value-" + strconv.Itoa(i)) }

func fill(c *Cache[[]byte], n int) {
	for i := 0; i < n; i++ {
		c.Put(uint64(i), val(i))
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	met := obs.NewRegistry()
	c := New[[]byte](256, met)
	fill(c, 100)
	var buf bytes.Buffer
	n, err := c.Snapshot(&buf, encBytes)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("snapshot wrote %d entries, want 100", n)
	}
	if got := met.Counter(obs.MCacheSnapshots).Value(); got != 1 {
		t.Fatalf("cache_snapshot_total = %d", got)
	}

	r := New[[]byte](256, met)
	st, err := r.Restore(&buf, decBytes)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 100 || st.Corrupt != 0 {
		t.Fatalf("restore stats = %+v", st)
	}
	for i := 0; i < 100; i++ {
		got, ok := r.Get(uint64(i))
		if !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d: (%q, %v) after restore", i, got, ok)
		}
	}
	if got := met.Counter(obs.MCacheRestored).Value(); got != 100 {
		t.Fatalf("cache_restore_entries_total = %d", got)
	}
}

// TestSnapshotPreservesRecency: restore must rebuild LRU order, so a
// capacity-limited restore keeps the most recently used entries.
func TestSnapshotPreservesRecency(t *testing.T) {
	c := New[[]byte](1600, nil) // 100/shard: nothing evicts
	for i := 0; i < 64; i++ {
		c.Put(0, val(0)) // same shard key twice: 0 and 16 share shard 0
	}
	// Two entries on shard 0: key 0 (old), key 16 (recent).
	c.Put(0, val(0))
	c.Put(16, val(16))
	c.Get(16) // 16 most recent
	var buf bytes.Buffer
	if _, err := c.Snapshot(&buf, encBytes); err != nil {
		t.Fatal(err)
	}
	r := New[[]byte](16, nil) // 1 per shard: shard 0 keeps only the MRU
	if _, err := r.Restore(&buf, decBytes); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(16); !ok {
		t.Fatal("most recently used entry evicted during restore")
	}
	if _, ok := r.Get(0); ok {
		t.Fatal("least recently used entry survived a 1-per-shard restore")
	}
}

// TestRestoreCorruptEntries: flipping any byte of one entry must
// discard exactly the damaged entries, keep the rest, count the
// damage, and never panic.
func TestRestoreCorruptEntries(t *testing.T) {
	c := New[[]byte](256, nil)
	fill(c, 32)
	var buf bytes.Buffer
	if _, err := c.Snapshot(&buf, encBytes); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	// Flip one byte at every offset past the header, one restore per
	// flip: restores must never panic and must never accept the
	// damaged entry's altered payload.
	for off := len(snapMagic); off < len(snap); off += 7 {
		cp := append([]byte(nil), snap...)
		cp[off] ^= 0xFF
		met := obs.NewRegistry()
		r := New[[]byte](256, met)
		st, err := r.Restore(bytes.NewReader(cp), decBytes)
		if err != nil {
			t.Fatalf("offset %d: restore errored: %v", off, err)
		}
		if st.Corrupt == 0 {
			t.Fatalf("offset %d: flipped byte not counted corrupt (stats %+v)", off, st)
		}
		if got := met.Counter(obs.MCacheRestoreCorrupt).Value(); got == 0 {
			t.Fatalf("offset %d: cache_restore_corrupt_total not incremented", off)
		}
		// No poison: every restored value must be the original.
		for i := 0; i < 32; i++ {
			if got, ok := r.Get(uint64(i)); ok && !bytes.Equal(got, val(i)) {
				t.Fatalf("offset %d: key %d poisoned: %q", off, i, got)
			}
		}
	}
}

// TestRestoreTruncated: every prefix of a snapshot restores the
// entries whose bytes fully survived and discards the torn tail.
func TestRestoreTruncated(t *testing.T) {
	c := New[[]byte](256, nil)
	fill(c, 16)
	var buf bytes.Buffer
	if _, err := c.Snapshot(&buf, encBytes); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	// Entry boundaries: a cut exactly on one looks like a clean EOF
	// (corrupt = 0); any other cut tears one entry (corrupt = 1).
	boundary := map[int]bool{}
	for off := len(snapMagic); off < len(snap); {
		boundary[off] = true
		n := binary.LittleEndian.Uint32(snap[off+8 : off+12])
		off += 12 + int(n) + 4
	}
	for cut := len(snapMagic) + 1; cut < len(snap); cut += 5 {
		r := New[[]byte](256, nil)
		st, err := r.Restore(bytes.NewReader(snap[:cut]), decBytes)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := 1
		if boundary[cut] {
			want = 0
		}
		if st.Corrupt != want {
			t.Fatalf("cut %d: corrupt = %d, want %d", cut, st.Corrupt, want)
		}
		if r.Len() != st.Restored {
			t.Fatalf("cut %d: Len %d != restored %d", cut, r.Len(), st.Restored)
		}
	}
	// A cut inside the magic is not a snapshot at all.
	r := New[[]byte](256, nil)
	if _, err := r.Restore(bytes.NewReader(snap[:4]), decBytes); err == nil {
		t.Fatal("restore of a half-header accepted")
	}
}

// TestRestoreHugeLengthField: a corrupt length field must not force a
// giant allocation; the restore stops and reports corruption.
func TestRestoreHugeLengthField(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], 1)
	binary.LittleEndian.PutUint32(hdr[8:12], 1<<31)
	buf.Write(hdr[:])
	r := New[[]byte](16, nil)
	st, err := r.Restore(&buf, decBytes)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 1 || st.Restored != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestShortStreamClaimingMaxLengthAllocatesLittle: a 20-byte stream,
// the magic plus one header claiming maxEntryLen, is a truncated entry,
// and reading it must not allocate the claimed 64 MiB.
func TestShortStreamClaimingMaxLengthAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], 1)
	binary.LittleEndian.PutUint32(hdr[8:12], maxEntryLen)
	buf.Write(hdr[:])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := ReadWire(&buf, func(uint64, []byte) bool { return true })
	runtime.ReadMemStats(&after)
	if err != nil || st.Corrupt != 1 {
		t.Fatalf("stats %+v, err %v; want one corrupt entry", st, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("scan allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestRestoreDecodeFailure: a payload the codec rejects counts as
// corrupt without aborting the restore.
func TestRestoreDecodeFailure(t *testing.T) {
	c := New[[]byte](64, nil)
	c.Put(1, []byte("good"))
	c.Put(2, []byte("BAD"))
	var buf bytes.Buffer
	if _, err := c.Snapshot(&buf, encBytes); err != nil {
		t.Fatal(err)
	}
	r := New[[]byte](64, nil)
	st, err := r.Restore(&buf, func(b []byte) ([]byte, error) {
		if bytes.Equal(b, []byte("BAD")) {
			return nil, errors.New("rejected")
		}
		return decBytes(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 1 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSaveLoadFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	c := New[[]byte](256, nil)
	fill(c, 20)
	if n, err := c.SaveFile(path, encBytes); err != nil || n != 20 {
		t.Fatalf("SaveFile: (%d, %v)", n, err)
	}
	// No temp litter after a successful save.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries after save, want 1", len(ents))
	}
	r := New[[]byte](256, nil)
	st, err := r.LoadFile(path, decBytes)
	if err != nil || st.Restored != 20 || st.Corrupt != 0 {
		t.Fatalf("LoadFile: (%+v, %v)", st, err)
	}
}

// TestSaveFileTruncationFault: with the snapshot_truncate point armed
// the saved file is torn, and a restore survives it: some entries
// load, the tail counts as corrupt, nothing panics.
func TestSaveFileTruncationFault(t *testing.T) {
	met := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "cache.snap")
	c := New[[]byte](256, met)
	c.SetFault(fault.New(1, met).Arm(fault.SnapTruncate, 1))
	fill(c, 50)
	if _, err := c.SaveFile(path, encBytes); err != nil {
		t.Fatal(err)
	}
	r := New[[]byte](256, met)
	st, err := r.LoadFile(path, decBytes)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored >= 50 {
		t.Fatalf("truncated snapshot restored all %d entries", st.Restored)
	}
	if st.Corrupt == 0 {
		t.Fatal("truncated snapshot reported no corruption")
	}
	if got := met.CounterWith(obs.MFaultInjected, "point", string(fault.SnapTruncate)).Value(); got != 1 {
		t.Fatalf("fault_injected_total{snapshot_truncate} = %d", got)
	}
}

// TestRestoreCorruptionFault: with cache_corrupt armed at rate 1,
// every read entry is corrupted in flight and the CRC discards all of
// them — the cache stays empty rather than poisoned.
func TestRestoreCorruptionFault(t *testing.T) {
	c := New[[]byte](256, nil)
	fill(c, 25)
	var buf bytes.Buffer
	if _, err := c.Snapshot(&buf, encBytes); err != nil {
		t.Fatal(err)
	}
	met := obs.NewRegistry()
	r := New[[]byte](256, met)
	r.SetFault(fault.New(2, met).Arm(fault.CacheCorrupt, 1))
	st, err := r.Restore(&buf, decBytes)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restored != 0 || st.Corrupt != 25 {
		t.Fatalf("stats = %+v, want 0 restored / 25 corrupt", st)
	}
	if r.Len() != 0 {
		t.Fatalf("cache has %d entries after fully-corrupted restore", r.Len())
	}
}

// TestSnapshotDuringConcurrentUse is the cache-concurrency acceptance
// test (run under -race): snapshots proceed while inserts, evictions,
// lookups, and singleflight resolutions hammer every shard, and each
// snapshot is internally consistent — every entry it captured decodes
// and carries the value its key was mapped to.
func TestSnapshotDuringConcurrentUse(t *testing.T) {
	c := New[[]byte](64, nil) // small: constant evictions
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(w*1000 + i%500)
				switch i % 3 {
				case 0:
					c.Put(k, val(int(k)))
				case 1:
					c.Get(k)
				default:
					c.Do(k, func() ([]byte, error) { return val(int(k)), nil })
				}
			}
		}(w)
	}
	for round := 0; round < 20; round++ {
		var buf bytes.Buffer
		if _, err := c.Snapshot(&buf, encBytes); err != nil {
			t.Fatal(err)
		}
		r := New[[]byte](0, nil) // storage disabled; we only decode
		seen := 0
		st, err := r.Restore(&buf, func(b []byte) ([]byte, error) {
			seen++
			return decBytes(b)
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st.Corrupt != 0 {
			t.Fatalf("round %d: concurrent snapshot produced %d corrupt entries", round, st.Corrupt)
		}
	}
	close(stop)
	wg.Wait()
	// The values must match their keys (no torn entries).
	var buf bytes.Buffer
	if _, err := c.Snapshot(&buf, encBytes); err != nil {
		t.Fatal(err)
	}
	r := New[[]byte](1<<16, nil)
	if _, err := r.Restore(&buf, decBytes); err != nil {
		t.Fatal(err)
	}
	for i := range r.shards {
		s := &r.shards[i]
		for el := s.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry[[]byte])
			if want := val(int(e.key)); !bytes.Equal(e.val, want) {
				t.Fatalf("key %d carries %q, want %q", e.key, e.val, want)
			}
		}
	}
}

// TestPanicInFlightManyWaiters: a panic injected inside a flight must
// resolve every concurrent waiter with errPanicked — none may hang —
// and the key must stay usable afterwards.
func TestPanicInFlightManyWaiters(t *testing.T) {
	c := New[[]byte](64, nil)
	const waiters = 32
	inFlight := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do(7, func() ([]byte, error) {
			close(inFlight)
			<-release
			panic(fmt.Errorf("injected"))
		})
	}()
	<-inFlight
	errs := make(chan error, waiters)
	var joined sync.WaitGroup
	for i := 0; i < waiters; i++ {
		joined.Add(1)
		go func() {
			joined.Done() // about to call Do; close enough to "joined"
			_, _, err := c.Do(7, func() ([]byte, error) { return val(7), nil })
			errs <- err
		}()
	}
	joined.Wait()
	close(release)
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != nil && err.Error() != (&panicError{}).Error() {
			t.Fatalf("waiter error: %v", err)
		}
	}
	if v, _, err := c.Do(7, func() ([]byte, error) { return val(7), nil }); err != nil || !bytes.Equal(v, val(7)) {
		t.Fatalf("post-panic Do: (%q, %v)", v, err)
	}
}
