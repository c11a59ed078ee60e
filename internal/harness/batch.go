package harness

// The batch-width benchmark: each benchmark query runs three times on the
// same database — tuple-at-a-time (BatchSize 1: one row per call), batched
// serial (default BatchSize), and batched parallel — comparing wall time,
// allocation counts, result sets, and charged cost. With caching off the
// charged cost must match bit for bit across all three (a wider batch only
// amortizes per-row overheads; the paper's cost accounting is per-tuple),
// and the batched serial run must reproduce the width-1 row order exactly,
// so the comparison is a width-invariance gate in CI.

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"predplace"
)

// benchQueries is the figure-query workload shared by the parallel and
// batch benchmarks.
var benchQueries = []struct {
	name string
	sql  string
}{
	{"query1", Query1},
	{"query2", Query2},
	{"query3", Query3},
	{"query4", Query4},
	{"query5", Query5},
}

// measure runs sql iters times under Predicate Migration, returning the
// last result, the best (minimum) wall time in ms, and the best (minimum)
// heap-allocation count of a single run.
func (h *Harness) measure(sql string, iters int) (*predplace.Result, float64, uint64, error) {
	var res *predplace.Result
	bestMs := math.MaxFloat64
	bestAllocs := uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for i := 0; i < iters; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		r, err := h.DB.Query(sql, predplace.Migration)
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, 0, 0, err
		}
		res = r
		if ms := float64(elapsed.Microseconds()) / 1000; ms < bestMs {
			bestMs = ms
		}
		if a := m1.Mallocs - m0.Mallocs; a < bestAllocs {
			bestAllocs = a
		}
	}
	return res, bestMs, bestAllocs, nil
}

// exactRows renders a result set order-sensitively: the serial batched run
// must reproduce the width-1 run's row order, not just its multiset.
func exactRows(res *predplace.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return out
}

// BatchQueryResult compares one query's tuple-at-a-time, batched-serial,
// and batched-parallel runs.
type BatchQueryResult struct {
	Query           string  `json:"query"`
	TupleMs         float64 `json:"tuple_ms"`
	BatchMs         float64 `json:"batch_ms"`
	ParallelMs      float64 `json:"batch_parallel_ms"`
	SpeedupBatch    float64 `json:"speedup_batch"`
	SpeedupParallel float64 `json:"speedup_batch_parallel"`
	TupleAllocs     uint64  `json:"tuple_allocs"`
	BatchAllocs     uint64  `json:"batch_allocs"`
	TupleCharged    float64 `json:"tuple_charged"`
	Rows            int     `json:"rows"`
	// RowsEqual: all three modes produced the same result multiset.
	RowsEqual bool `json:"rows_equal"`
	// OrderEqual: the batched serial run reproduced the width-1 row order
	// exactly (parallel runs are exempt — they do not preserve order).
	OrderEqual bool `json:"order_equal"`
	// ChargedEqual: all three modes charged exactly the same cost.
	ChargedEqual bool `json:"charged_equal"`
}

// BatchBench is the full tuple-vs-batch-vs-parallel comparison over
// Queries 1–5.
type BatchBench struct {
	Scale     float64            `json:"scale"`
	Workers   int                `json:"workers"`
	BatchSize int                `json:"batch_size"`
	Iters     int                `json:"iters"`
	Queries   []BatchQueryResult `json:"queries"`
	// Pass is true when every query returned the same rows (same order for
	// serial modes) and charged exactly the same cost in all three modes.
	Pass bool `json:"pass"`
}

// RunBatchBench runs Queries 1–5 under Predicate Migration with caching
// off in three executor modes on the same database: tuple-at-a-time
// (BatchSize 1), batched serial (default BatchSize), and batched
// workers-way parallel. Timings and allocation counts are best-of-iters.
func (h *Harness) RunBatchBench(workers, iters int) (*BatchBench, error) {
	if iters < 1 {
		iters = 1
	}
	h.DB.SetCaching(false)
	h.DB.SetBudget(0)
	defer h.DB.SetBatchSize(0)
	bench := &BatchBench{
		Scale: h.Scale, Workers: workers,
		BatchSize: predplace.DefaultBatchSize, Iters: iters, Pass: true,
	}
	for _, q := range benchQueries {
		h.DB.SetParallelism(1)
		h.DB.SetBatchSize(1)
		tuple, tupleMs, tupleAllocs, err := h.measure(q.sql, iters)
		if err != nil {
			return nil, fmt.Errorf("%s tuple: %w", q.name, err)
		}

		h.DB.SetBatchSize(0)
		batch, batchMs, batchAllocs, err := h.measure(q.sql, iters)
		if err != nil {
			return nil, fmt.Errorf("%s batch: %w", q.name, err)
		}

		h.DB.SetParallelism(workers)
		par, parMs, _, err := h.measure(q.sql, iters)
		h.DB.SetParallelism(1)
		if err != nil {
			return nil, fmt.Errorf("%s batch+parallel: %w", q.name, err)
		}

		tupleCanon := canonicalRows(tuple)
		r := BatchQueryResult{
			Query:        q.name,
			TupleMs:      tupleMs,
			BatchMs:      batchMs,
			ParallelMs:   parMs,
			TupleAllocs:  tupleAllocs,
			BatchAllocs:  batchAllocs,
			TupleCharged: tuple.Stats.Charged(),
			Rows:         tuple.Stats.Rows,
			RowsEqual: equalStrings(tupleCanon, canonicalRows(batch)) &&
				equalStrings(tupleCanon, canonicalRows(par)),
			OrderEqual: equalStrings(exactRows(tuple), exactRows(batch)),
			ChargedEqual: tuple.Stats.Charged() == batch.Stats.Charged() &&
				tuple.Stats.Charged() == par.Stats.Charged(),
		}
		if batchMs > 0 {
			r.SpeedupBatch = tupleMs / batchMs
		}
		if parMs > 0 {
			r.SpeedupParallel = tupleMs / parMs
		}
		if !r.RowsEqual || !r.OrderEqual || !r.ChargedEqual {
			bench.Pass = false
		}
		bench.Queries = append(bench.Queries, r)
	}
	return bench, nil
}

// JSON renders the benchmark as indented JSON (BENCH_batch.json).
func (b *BatchBench) JSON() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// String renders the benchmark as an aligned table.
func (b *BatchBench) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "batch execution bench: scale=%.3g workers=%d iters=%d (Migration, caching off)\n",
		b.Scale, b.Workers, b.Iters)
	fmt.Fprintf(&sb, "%-8s %9s %9s %9s %8s %8s %11s %11s %6s %8s\n",
		"query", "tuple-ms", "batch-ms", "b+par-ms", "batch-x", "b+par-x",
		"tup-allocs", "bat-allocs", "rows", "verdict")
	for _, q := range b.Queries {
		verdict := "OK"
		switch {
		case !q.RowsEqual:
			verdict = "ROWS!"
		case !q.OrderEqual:
			verdict = "ORDER!"
		case !q.ChargedEqual:
			verdict = "COST!"
		}
		fmt.Fprintf(&sb, "%-8s %9.1f %9.1f %9.1f %7.2fx %7.2fx %11d %11d %6d %8s\n",
			q.Query, q.TupleMs, q.BatchMs, q.ParallelMs,
			q.SpeedupBatch, q.SpeedupParallel,
			q.TupleAllocs, q.BatchAllocs, q.Rows, verdict)
	}
	if b.Pass {
		sb.WriteString("PASS: batched results, row order, and charged costs match tuple-at-a-time exactly\n")
	} else {
		sb.WriteString("FAIL: batched execution diverged from tuple-at-a-time\n")
	}
	return sb.String()
}
