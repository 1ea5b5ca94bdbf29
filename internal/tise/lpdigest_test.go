package tise

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"calib/internal/workload"
)

// TestLPValuesPinned pins the float64 LP's output bit for bit over a
// corpus of long-window instances: the objective, the pivot count, the
// calibration profile C and the assignment X. TestServedAnswersPinned
// pins only what the rounded schedules make visible; this test also
// catches a change that moves an LP value without moving a schedule.
// A tableau change that claims bit-identical answers must leave the
// digest untouched. As there, the float64 LP rounds per architecture,
// so the digest holds on amd64 only.
func TestLPValuesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest is recorded on amd64; %s may round the float64 LP differently", runtime.GOARCH)
	}
	const want = "54029ea4d267eaea2b0117272ffc257d270c863ae3ea872b9f48def3d10d6822"
	h := sha256.New()
	var buf [8]byte
	put := func(bits uint64) {
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:])
	}
	putFloats := func(xs []float64) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	values := 0
	for _, n := range []int{8, 16, 24, 40} {
		for seed := int64(1); seed <= 12; seed++ {
			inst, _ := workload.Long(rand.New(rand.NewSource(seed)), n, 2, 10)
			frac, err := SolveLP(inst, 6, Float64)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			put(math.Float64bits(frac.Objective))
			put(uint64(frac.Iterations))
			putFloats(frac.C)
			put(uint64(len(frac.X)))
			for _, x := range frac.X {
				putFloats(x)
				values += len(x)
			}
			values += 2 + len(frac.C)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("LP values moved over %d values: digest %s, want %s", values, got, want)
	}
}
