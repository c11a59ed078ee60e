package predplace_test

// Micro-benchmarks isolating the batch executor's hot paths — scan, cheap
// filter, expensive filter, hash join — at BatchSize 1 (one row per call)
// versus the tuned default. Each sub-benchmark
// reports allocs/op; the batch rows should show the slab-decode and
// batched-evaluation savings (EXPERIMENTS.md records the numbers).
//
// Run: go test -bench=BenchmarkBatch -benchmem

import (
	"testing"

	"predplace"
)

// benchBatchSizes runs one query at tuple granularity and at the default
// batch width, reporting allocations for both.
func benchBatchSizes(b *testing.B, sql string, algo predplace.Algorithm) {
	h := benchHarness(b)
	defer h.DB.SetOptions(func(c *predplace.Config) { c.BatchSize = 0 })
	modes := []struct {
		name string
		size int
	}{
		{"tuple", 1},
		{"batch", 0}, // 0 selects the tuned default width
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			h.DB.SetOptions(func(c *predplace.Config) { c.BatchSize = m.size })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := h.DB.Query(sql, algo)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatal("query returned nothing")
				}
			}
		})
	}
}

// BenchmarkBatchScan isolates the sequential-scan path: no predicates, so
// the work is page access + tuple decode into slab rows, amortized over the
// batch width.
func BenchmarkBatchScan(b *testing.B) {
	benchBatchSizes(b, "SELECT * FROM t10", predplace.PushDown)
}

// BenchmarkBatchCheapFilter adds one cheap comparison predicate, exercising
// holdsBatch's tight SelCmp loop against per-row holds calls.
func BenchmarkBatchCheapFilter(b *testing.B) {
	benchBatchSizes(b, "SELECT * FROM t10 WHERE t10.u10 < 5", predplace.PushDown)
}

// BenchmarkBatchExpensiveFilter runs one expensive predicate (costly100,
// caching off), exercising the batched function-dispatch path; invocation
// cost dominates, so the win here is smaller than on the cheap paths.
func BenchmarkBatchExpensiveFilter(b *testing.B) {
	benchBatchSizes(b, "SELECT * FROM t3 WHERE costly100(t3.u20)", predplace.PushDown)
}

// BenchmarkBatchHashJoin isolates the hash-join build+probe path: batch
// mode builds from NextBatch slices, probes with a reused key buffer, and
// slab-materializes output rows instead of per-pair Concat allocations.
func BenchmarkBatchHashJoin(b *testing.B) {
	benchBatchSizes(b, "SELECT * FROM t3, t9 WHERE t3.ua1 = t9.ua1", predplace.PushDown)
}
