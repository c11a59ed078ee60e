package exec

// Blocked Bloom filter for the predicate-transfer pre-filter pass (DESIGN.md
// §16). Each key touches exactly one cache-line-sized 512-bit block, chosen
// by the low bits of a single 64-bit hash; the k bit positions inside the
// block come from double hashing two further slices of the same hash, so one
// multiply-shift per key drives the whole probe. Stdlib-only, and both the
// Add and Test paths are allocation-free so batched scans keep the PR 3
// executor's alloc profile.
//
// Blocked filters trade a worse false-positive rate (all k bits share 512
// bits instead of the whole array, as an arithmetic progression) for one
// cache line per probe; EstFPRate models both, and the property test in
// bloom_test.go holds the measured rate to a band around it.

import (
	"math"
	"math/bits"
	"sync"

	"predplace/internal/expr"
)

const (
	// bloomBlockBits is the bits per block: 512 = one 64-byte cache line.
	bloomBlockBits  = 512
	bloomBlockWords = bloomBlockBits / 64
	// bloomK is the number of bits set/tested per key.
	bloomK = 8
	// bloomBitsPerKey sizes a filter from its expected key count (~12 bits
	// per key ≈ 0.5% classic false-positive rate at k=8).
	bloomBitsPerKey = 12
	// bloomMaxBlocks caps one filter at 64 MiB regardless of the expected
	// key count (the filter degrades to a higher FP rate, never OOM).
	bloomMaxBlocks = 1 << 20
)

// bloomFilter is a blocked Bloom filter. Not safe for concurrent Add;
// concurrent Test against a finished filter is safe (reads only).
type bloomFilter struct {
	words     []uint64
	blockMask uint64
	adds      int64 // keys that set a new bit: the distinct keys, but for false positives
}

// newBloomFilter sizes a filter for the expected number of distinct keys,
// rounding the block count up to a power of two so block selection is a
// single mask.
func newBloomFilter(expected int64) *bloomFilter {
	if expected < 1 {
		expected = 1
	}
	blocks := uint64(1)
	for blocks*bloomBlockBits < uint64(expected)*bloomBitsPerKey && blocks < bloomMaxBlocks {
		blocks <<= 1
	}
	return &bloomFilter{
		words:     make([]uint64, blocks*bloomBlockWords),
		blockMask: blocks - 1,
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// high-quality 64-bit mixer (every input bit affects every output bit).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// bloomHash maps a join-key value to the single 64-bit hash the filter
// consumes. Equal values (expr.Value.Equal) hash identically — the filter's
// no-false-negative guarantee rests on that. Int and bool keys skip the FNV
// path entirely: the raw payload goes straight through the mixer.
func bloomHash(v expr.Value) uint64 {
	if v.Kind == expr.TInt || v.Kind == expr.TBool {
		return splitmix64(uint64(v.I) ^ uint64(v.Kind)<<56)
	}
	return splitmix64(v.Hash())
}

// Add sets the key's k bits in its block. It counts the key in adds only
// when it sets a bit the block lacked, so a repeated key counts once.
func (b *bloomFilter) Add(h uint64) {
	base := (h & b.blockMask) * bloomBlockWords
	g := uint32(h >> 17)
	d := uint32(h>>33) | 1
	var fresh uint64
	for i := uint32(0); i < bloomK; i++ {
		bit := (g + i*d) & (bloomBlockBits - 1)
		w, m := &b.words[base+uint64(bit>>6)], uint64(1)<<(bit&63)
		fresh |= m &^ *w
		*w |= m
	}
	if fresh != 0 {
		b.adds++
	}
}

// Test reports whether the key may have been added (false positives
// possible, false negatives never).
func (b *bloomFilter) Test(h uint64) bool {
	base := (h & b.blockMask) * bloomBlockWords
	g := uint32(h >> 17)
	d := uint32(h>>33) | 1
	for i := uint32(0); i < bloomK; i++ {
		bit := (g + i*d) & (bloomBlockBits - 1)
		if b.words[base+uint64(bit>>6)]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// EstFPRate is the expected false-positive rate of a probe by a key never
// added, at the filter's fill (its adds, the distinct keys): the rate of
// a block holding j keys (bloomBlockFP) averaged over a Poisson block load
// of mean adds per block. The classic whole-array bound (1−e^(−kn/m))^k
// reads 18× under the measured rate at the fill of EXPLAIN ANALYZE's
// transfer statement: keys do not spread evenly over blocks, and a
// progression that shares most of its positions with another is far
// likelier than k independent bits.
func (b *bloomFilter) EstFPRate() float64 {
	if b.adds == 0 {
		return 0
	}
	fp := bloomBlockFP()
	mean := float64(b.adds) / float64(b.blockMask+1)
	lo, hi := max(0, math.Floor(mean-12*math.Sqrt(mean)-30)), mean+12*math.Sqrt(mean)+30
	lg, _ := math.Lgamma(lo + 1)
	w := math.Exp(lo*math.Log(mean) - mean - lg) // the Poisson weight of j keys
	rate := 0.0
	for j := lo; j <= hi; j++ {
		f := 1.0 // a block fuller than the table passes every probe
		if int(j) < len(fp) {
			f = fp[int(j)]
		}
		rate += w * f
		w *= mean / (j + 1)
	}
	return min(max(rate, 0), 1)
}

// bloomBlockFP returns, for j up to 1 023, the chance that a probe passes a
// block holding j keys: that its k positions all lie among the keys'. Add's
// positions in a block are an arithmetic progression mod 512 of uniform
// start and odd step; the maps x ↦ ax+b (a odd) permute the progressions and
// keep their distribution, so the chance is the same for every probe — that
// of the progression 0…k−1 — and by inclusion–exclusion over the subsets S
// of those positions it is Σ (−1)^|S| (1 − c(S))^j, c(S) the share of all
// 2^17 progressions that meet S. At 1 024 keys a block passes all but about
// 1e−6 of probes.
var bloomBlockFP = sync.OnceValue(func() []float64 {
	var hits [1 << bloomK]int // progressions by the positions below k they meet
	for d := 1; d < bloomBlockBits; d += 2 {
		for g := 0; g < bloomBlockBits; g++ {
			m := 0
			for i := 0; i < bloomK; i++ {
				if bit := (g + i*d) & (bloomBlockBits - 1); bit < bloomK {
					m |= 1 << bit
				}
			}
			hits[m]++
		}
	}
	var miss, pow [1 << bloomK]float64 // 1 − c(S), and its jth power
	for s := range miss {
		for m, n := range hits {
			if m&s == 0 {
				miss[s] += float64(n)
			}
		}
		miss[s] /= bloomBlockBits * bloomBlockBits / 2
		pow[s] = 1
	}
	fp := make([]float64, 2*bloomBlockBits)
	for j := range fp {
		for s := range pow {
			if bits.OnesCount(uint(s))%2 == 0 {
				fp[j] += pow[s]
			} else {
				fp[j] -= pow[s]
			}
			pow[s] *= miss[s]
		}
	}
	return fp
})
