package cache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"calib/internal/fault"
)

// Snapshot persistence: the cache's durability layer. A snapshot is a
// length-prefixed, per-entry-checksummed dump of every live entry,
// written atomically (temp file + rename) so a crash mid-write can
// never replace a good snapshot with a torn one, and restored
// entry-by-entry so corruption — flipped bytes, a truncated tail, a
// wrong length field — discards exactly the damaged entries (counted
// in cache_restore_corrupt_total) and keeps the rest. Restore never
// panics on arbitrary bytes; FuzzRestore holds it to that.
//
// Wire format (all integers little-endian):
//
//	header:  magic "ISECSNP1" (8 bytes)
//	entry:   key uint64 | len uint32 | payload[len] | crc uint32
//
// where crc is IEEE CRC-32 over key|len|payload. Values are
// serialized by caller-supplied codec functions, keeping the cache
// generic; the serving layer's codec lives in internal/server.

// snapMagic identifies snapshot files; the trailing digit versions
// the format.
const snapMagic = "ISECSNP1"

// maxEntryLen bounds a single entry's payload so a corrupt length
// field cannot force a multi-gigabyte allocation during restore.
const maxEntryLen = 64 << 20

// RestoreStats reports a restore's outcome: how many entries were
// accepted, how many were skipped because the key was already cached
// (RestoreIfAbsent only), and how many were discarded as corrupt (bad
// CRC, failed decode, truncated tail, oversized length).
type RestoreStats struct {
	Restored, Skipped, Corrupt int
}

// Snapshot writes every live entry to w, least recently used first,
// so a later Restore rebuilds the same recency order. Shards are
// locked one at a time — concurrent reads, inserts, and in-flight
// solves on other shards proceed during the snapshot — and entries
// are copied out before encoding, so encode runs without holding any
// shard lock (cached values are immutable by the cache's contract).
// Returns the number of entries written.
func (c *Cache[V]) Snapshot(w io.Writer, encode func(V) ([]byte, error)) (int, error) {
	bw := bufio.NewWriter(w)
	if err := WriteWireHeader(bw); err != nil {
		return 0, err
	}
	written := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		pairs := make([]entry[V], 0, s.lru.Len())
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry[V])
			pairs = append(pairs, entry[V]{key: e.key, val: e.val})
		}
		s.mu.Unlock()
		for _, e := range pairs {
			payload, err := encode(e.val)
			if err != nil {
				return written, fmt.Errorf("cache: encoding entry %016x: %w", e.key, err)
			}
			if err := WriteWireEntry(bw, e.key, payload); err != nil {
				return written, err
			}
			written++
		}
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	c.snapshots.Inc()
	c.snapEntries.Set(float64(written))
	return written, nil
}

// WriteWireHeader writes the snapshot magic. Together with
// WriteWireEntry it exposes the wire format to other durability
// layers — the fleet's hinted-handoff files and warm-transfer streams
// reuse the same framing (and therefore the same corruption-tolerant
// reader) instead of inventing a second one.
func WriteWireHeader(w io.Writer) error {
	_, err := io.WriteString(w, snapMagic)
	return err
}

// WriteWireEntry writes one CRC-framed entry in the snapshot wire
// format: key uint64 | len uint32 | payload | crc uint32.
func WriteWireEntry(w io.Writer, key uint64, payload []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], key)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	crc.Write(payload)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	for _, b := range [][]byte{hdr[:], payload, sum[:]} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// ReadWire scans a snapshot-wire stream, calling fn for each intact
// entry (the payload is freshly allocated and owned by fn); fn returns
// whether to keep scanning. Damaged entries are counted in Corrupt and
// skipped when the framing survives, or end the scan when it does not
// — exactly Restore's corruption semantics, without the cache. The
// error is non-nil only for a bad magic: a consumer of arbitrary bytes
// (a hint file, a warm-transfer body) must never panic or trust a
// corrupt length field.
func ReadWire(r io.Reader, fn func(key uint64, payload []byte) bool) (RestoreStats, error) {
	return scanWire(r, nil, fn)
}

// scanWire is ReadWire plus the deterministic fault injector the
// cache's own restore path arms (cache_corrupt flips payload bytes
// before the CRC check).
func scanWire(r io.Reader, inj *fault.Injector, fn func(key uint64, payload []byte) bool) (RestoreStats, error) {
	var st RestoreStats
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return st, fmt.Errorf("cache: snapshot too short for header: %w", err)
	}
	if string(magic) != snapMagic {
		return st, fmt.Errorf("cache: bad snapshot magic %q", magic)
	}
	for {
		var hdr [12]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				break // clean end of stream
			}
			st.Corrupt++ // truncated mid-header
			break
		}
		key := binary.LittleEndian.Uint64(hdr[0:8])
		n := binary.LittleEndian.Uint32(hdr[8:12])
		if n > maxEntryLen {
			// Corrupt length: framing is lost, nothing after this
			// point can be trusted.
			st.Corrupt++
			break
		}
		// Grow the payload as its bytes arrive instead of allocating
		// the claimed length up front: a short stream whose header
		// claims maxEntryLen must not cost 64 MiB.
		payload, err := io.ReadAll(io.LimitReader(br, int64(n)))
		if err != nil || len(payload) < int(n) {
			st.Corrupt++ // truncated mid-payload
			break
		}
		var sum [4]byte
		if _, err := io.ReadFull(br, sum[:]); err != nil {
			st.Corrupt++ // truncated mid-checksum
			break
		}
		inj.Corrupt(faultCacheCorrupt, payload)
		crc := crc32.NewIEEE()
		crc.Write(hdr[:])
		crc.Write(payload)
		if crc.Sum32() != binary.LittleEndian.Uint32(sum[:]) {
			st.Corrupt++
			continue // framing still intact: later entries may be fine
		}
		if !fn(key, payload) {
			break
		}
	}
	return st, nil
}

// Restore reads a snapshot from r and inserts every intact entry via
// Put (so capacity limits and LRU order apply as usual). Damaged
// entries are discarded and counted, never returned and never fatal:
// the error is non-nil only when the stream is not a snapshot at all
// (bad magic) or reading fails with a real I/O error. When the fault
// injector's cache_corrupt point is armed, read payloads are
// deterministically corrupted before the CRC check — the chaos
// suite's way of proving corrupt entries die here and nowhere else.
func (c *Cache[V]) Restore(r io.Reader, decode func([]byte) (V, error)) (RestoreStats, error) {
	return c.restoreWith(r, decode, func(key uint64, val V) bool {
		c.Put(key, val)
		return true
	})
}

// RestoreIfAbsent is Restore through PutIfAbsent: entries whose key is
// already cached are left untouched (no value replacement, no recency
// bump) and counted in Skipped. The fleet's warm-transfer receiver
// uses it so a freshly transferred snapshot can never clobber entries
// the warming node solved, or re-solved, on its own.
func (c *Cache[V]) RestoreIfAbsent(r io.Reader, decode func([]byte) (V, error)) (RestoreStats, error) {
	return c.restoreWith(r, decode, func(key uint64, val V) bool {
		return c.PutIfAbsent(key, val)
	})
}

// restoreWith is the shared restore core: scan, decode, insert. insert
// reports whether the entry was actually stored.
func (c *Cache[V]) restoreWith(r io.Reader, decode func([]byte) (V, error), insert func(uint64, V) bool) (RestoreStats, error) {
	var st RestoreStats
	wst, err := scanWire(r, c.fault, func(key uint64, payload []byte) bool {
		val, derr := decode(payload)
		if derr != nil {
			st.Corrupt++
			return true
		}
		if insert(key, val) {
			st.Restored++
		} else {
			st.Skipped++
		}
		return true
	})
	st.Corrupt += wst.Corrupt
	c.restored.Add(int64(st.Restored))
	c.restoreCorrupt.Add(int64(st.Corrupt))
	return st, err
}

// SaveFile snapshots the cache to path atomically: the snapshot is
// written to a temp file in path's directory, fsynced, and renamed
// over path, so readers only ever see a complete snapshot — a crash
// (or SIGKILL) mid-save leaves the previous file intact. When the
// fault injector's snapshot_truncate point is armed, the temp file is
// truncated before the rename, simulating the torn write Restore must
// survive. Returns the number of entries written.
func (c *Cache[V]) SaveFile(path string, encode func(V) ([]byte, error)) (int, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	n, err := c.Snapshot(tmp, encode)
	if err != nil {
		tmp.Close()
		return n, err
	}
	if c.fault.Hit(faultSnapTruncate) {
		if info, serr := tmp.Stat(); serr == nil {
			_ = tmp.Truncate(info.Size() / 2)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return n, err
	}
	if err := tmp.Close(); err != nil {
		return n, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return n, err
	}
	// Persist the rename itself; best-effort — not all filesystems
	// support fsync on directories.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return n, nil
}

// LoadFile restores the cache from the snapshot at path; see Restore
// for corruption semantics.
func (c *Cache[V]) LoadFile(path string, decode func([]byte) (V, error)) (RestoreStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return RestoreStats{}, err
	}
	defer f.Close()
	return c.Restore(f, decode)
}
