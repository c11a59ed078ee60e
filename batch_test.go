package predplace_test

// Randomized batch-width invariant tests: for random queries, plans, and
// batch widths, execution must be indistinguishable from the run at width 1
// (one row per call) — identical rows (same order for serial execution),
// identical charged cost, and with caching on identical function-invocation
// counts (the batched predicate-cache protocol is as-if-sequential). These run under -race in check.sh, so they also vet
// the pooled-buffer and parallel fan-in plumbing for data races.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"predplace"
)

// orderedRows renders a result set order-sensitively (serial executors are
// deterministic, so batch width must not change row order).
func orderedRows(res *predplace.Result) []string {
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

func TestRandomizedBatchAgreement(t *testing.T) {
	db, err := predplace.Open(predplace.Config{
		Scale: 0.01, Tables: []int{1, 2, 3}, Parallelism: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.SetParallelism(1)
	rng := rand.New(rand.NewSource(20260806))
	algos := predplace.Algorithms()
	widths := []int{0, 2, 3, 7, 64, predplace.DefaultBatchSize + 1}
	for trial := 0; trial < 12; trial++ {
		sql := genQuery(rng)
		algo := algos[rng.Intn(len(algos))]
		caching := trial%2 == 0
		width := widths[rng.Intn(len(widths))]
		t.Run(fmt.Sprintf("q%02d", trial), func(t *testing.T) {
			db.SetCaching(caching)
			db.SetParallelism(1)

			db.SetBatchSize(1)
			tuple, err := db.Query(sql, algo)
			if err != nil {
				t.Fatalf("tuple %v on %q: %v", algo, sql, err)
			}

			db.SetBatchSize(width)
			batch, err := db.Query(sql, algo)
			if err != nil {
				t.Fatalf("batch(%d) %v on %q: %v", width, algo, sql, err)
			}

			// Serial batched execution must reproduce the width-1 run exactly:
			// rows in the same order, same charged cost, same invocations.
			tupleRows, batchRows := orderedRows(tuple), orderedRows(batch)
			if len(tupleRows) != len(batchRows) {
				t.Fatalf("batch(%d) returned %d rows, tuple returned %d\nquery: %s",
					width, len(batchRows), len(tupleRows), sql)
			}
			for i := range tupleRows {
				if tupleRows[i] != batchRows[i] {
					t.Fatalf("batch(%d) row %d differs from tuple run (caching=%v)\nquery: %s",
						width, i, caching, sql)
				}
			}
			if tc, bc := tuple.Stats.Charged(), batch.Stats.Charged(); tc != bc {
				t.Fatalf("batch(%d) charged %v, tuple charged %v (caching=%v)\nquery: %s",
					width, bc, tc, caching, sql)
			}
			for fn, tcalls := range tuple.Stats.Invocations {
				if bcalls := batch.Stats.Invocations[fn]; bcalls != tcalls {
					t.Fatalf("batch(%d) invoked %s %d times, tuple %d (caching=%v)\nquery: %s",
						width, fn, bcalls, tcalls, caching, sql)
				}
			}

			// Batched parallel execution does not preserve order, and with
			// caching on concurrent misses may double-invoke (DESIGN.md §11),
			// so compare multisets and charged cost with caching off.
			db.SetCaching(false)
			db.SetBatchSize(1)
			serial, err := db.Query(sql, algo)
			if err != nil {
				t.Fatalf("serial %v on %q: %v", algo, sql, err)
			}
			db.SetBatchSize(width)
			db.SetParallelism(3)
			par, err := db.Query(sql, algo)
			db.SetParallelism(1)
			db.SetBatchSize(0)
			if err != nil {
				t.Fatalf("batch(%d)+parallel %v on %q: %v", width, algo, sql, err)
			}
			sc, pc := canonRows(serial), canonRows(par)
			if len(sc) != len(pc) {
				t.Fatalf("batch(%d)+parallel returned %d rows, serial %d\nquery: %s",
					width, len(pc), len(sc), sql)
			}
			for i := range sc {
				if sc[i] != pc[i] {
					t.Fatalf("batch(%d)+parallel row %d differs from serial\nquery: %s", width, i, sql)
				}
			}
			if scost, pcost := serial.Stats.Charged(), par.Stats.Charged(); scost != pcost {
				t.Fatalf("batch(%d)+parallel charged %v, serial charged %v\nquery: %s",
					width, pcost, scost, sql)
			}
		})
	}
}
