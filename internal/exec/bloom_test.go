package exec

import (
	"math/rand"
	"testing"

	"predplace/internal/expr"
)

// TestBloomNoFalseNegatives pins the filter's one hard guarantee: every
// added key tests positive.
func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int64{1, 100, 10000} {
		f := newBloomFilter(n)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = bloomHash(expr.I(rng.Int63()))
		}
		for _, h := range keys {
			f.Add(h)
		}
		for i, h := range keys {
			if !f.Test(h) {
				t.Fatalf("n=%d: added key %d tests negative", n, i)
			}
		}
	}
}

// TestBloomFPRateWithinAnalyticBound is the property test: the measured
// false-positive rate over a large non-member probe set must lie within 25 %
// of EstFPRate, either way, at the fill a filter is sized for, at the
// under-filled one EXPLAIN ANALYZE's transfer statement builds (200 keys in 8
// blocks), twice over-filled, and filled from a non-unique column (200 keys
// added nine times each, as a join column that repeats its values builds).
func TestBloomFPRateWithinAnalyticBound(t *testing.T) {
	const probes = 1000000
	for _, c := range []struct{ sized, members, repeats int64 }{{10000, 10000, 1}, {200, 200, 1}, {1000, 2000, 1}, {200, 200, 9}} {
		f := newBloomFilter(c.sized)
		seen := make(map[uint64]bool, c.members)
		for i := int64(0); i < c.members*c.repeats; i++ {
			h := bloomHash(expr.I(i % c.members))
			seen[h] = true
			f.Add(h)
		}
		est := f.EstFPRate()
		if est <= 0 || est >= 1 {
			t.Fatalf("%d keys: EstFPRate = %g, want in (0,1)", c.members, est)
		}
		fp, n := 0, 0
		for i := int64(0); i < probes; i++ {
			h := bloomHash(expr.I(c.members + 1 + i*7919))
			if seen[h] {
				continue
			}
			n++
			if f.Test(h) {
				fp++
			}
		}
		if actual := float64(fp) / float64(n); actual < est/1.25 || actual > est*1.25 {
			t.Errorf("%d keys in %d blocks: measured FP rate %.5f, EstFPRate %.5f", c.members, f.blockMask+1, actual, est)
		}
	}
}

func BenchmarkBloomAdd(b *testing.B) {
	f := newBloomFilter(int64(b.N))
	hs := make([]uint64, 4096)
	for i := range hs {
		hs[i] = splitmix64(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(hs[i&4095])
	}
}
