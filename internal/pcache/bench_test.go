package pcache

import (
	"fmt"
	"testing"

	"predplace/internal/expr"
)

// benchEntries is the table size the micro-benchmarks run against (the
// bench/ probes use the same): large enough that all 16 shards are populated,
// small enough to stay cache-resident.
const benchEntries = 4096

// benchKeys returns benchEntries distinct bindings of the given arity, as
// the string keys of the single-key API and the raw keys of the batch API.
func benchKeys(arity int) ([]string, [][]byte) {
	keys := make([]string, benchEntries)
	raw := make([][]byte, benchEntries)
	args := make([]expr.Value, arity)
	for i := range keys {
		for a := range args {
			args[a] = expr.I(int64(i + a*7919))
		}
		keys[i] = Key(args)
		raw[i] = []byte(keys[i])
	}
	return keys, raw
}

// benchManager returns an unbounded manager holding every key but each
// missEvery'th (0 = all present).
func benchManager(keys []string, missEvery int) (*Manager, string) {
	m := NewManager(true, 0)
	owner := m.Owner(1, "costly100")
	for i, k := range keys {
		if missEvery == 0 || i%missEvery != 0 {
			m.Store(owner, k, expr.B(i%2 == 0))
		}
	}
	return m, owner
}

func BenchmarkPcacheLookupHit(b *testing.B) {
	keys, _ := benchKeys(1)
	m, owner := benchManager(keys, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(owner, keys[i%benchEntries])
	}
}

func BenchmarkPcacheStore(b *testing.B) {
	keys, _ := benchKeys(1)
	m := NewManager(true, 0)
	owner := m.Owner(1, "costly100")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchEntries == 0 {
			m.Reset() // every pass stores into an empty table
		}
		m.Store(owner, keys[i%benchEntries], expr.B(i%2 == 0))
	}
}

// BenchmarkPcacheGetBatch reports ns per key (one op = one binding) over
// 256-key batches, so its figure reads against BenchmarkPcacheLookupHit's.
func BenchmarkPcacheGetBatch(b *testing.B) {
	const width = 256
	for _, arity := range []int{1, 2} {
		for _, c := range []struct {
			name      string
			missEvery int
		}{{"hit", 0}, {"miss1pct", 100}} {
			b.Run(fmt.Sprintf("args%d/%s", arity, c.name), func(b *testing.B) {
				keys, raw := benchKeys(arity)
				m, owner := benchManager(keys, c.missEvery)
				out := make([]BatchEntry, width)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += width {
					lo := i % benchEntries
					m.GetBatch(owner, raw[lo:lo+width], out)
				}
			})
		}
	}
}

// BenchmarkPcacheGetBatchParallel is the striped-contention case: every
// goroutine batches lookups against one owner's table (ns per key).
func BenchmarkPcacheGetBatchParallel(b *testing.B) {
	const width = 256
	keys, raw := benchKeys(1)
	m, owner := benchManager(keys, 0)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		out := make([]BatchEntry, width)
		lo, left := 0, 0
		for pb.Next() {
			if left == 0 {
				m.GetBatch(owner, raw[lo:lo+width], out)
				lo, left = (lo+width)%benchEntries, width
			}
			left--
		}
	})
}
