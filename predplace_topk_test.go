package predplace_test

// ORDER BY / LIMIT plan-root tests: the plan shapes, and injected read faults
// mid-heap-fill, which must abort cleanly with nothing pinned and nothing
// charged for the failed I/O. Rows and charged cost: orderLimit (lattice_test.go).

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"predplace"
	"predplace/internal/harness"
)

// TestTopKOrderedIndexPlan pins the plan shapes: an ORDER BY on the unique
// indexed key plus LIMIT plans an early-terminating Limit over an index-order
// scan — no sort anywhere — and EXPLAIN ANALYZE marks the short-circuit; the
// heap path renders its TopK root with heap counters.
func TestTopKOrderedIndexPlan(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.02, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	ordered := "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.a1 LIMIT 10"
	plan, err := db.Explain(ordered, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Limit 10 (index order t1.a1)") || !strings.Contains(plan, "IndexScan t1.a1") {
		t.Fatalf("ordered query did not plan an index-order Limit:\n%s", plan)
	}
	if strings.Contains(plan, "TopK") {
		t.Fatalf("ordered query should not need the heap:\n%s", plan)
	}
	res, err := db.Query("EXPLAIN ANALYZE "+ordered, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "short-circuit") {
		t.Fatalf("EXPLAIN ANALYZE missing the Limit short-circuit marker:\n%s", res.Plan)
	}

	heap := "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.ua1 LIMIT 10"
	res, err = db.Query("EXPLAIN ANALYZE "+heap, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "TopK 10 by t1.ua1") || !strings.Contains(res.Plan, "heap(pushed=") {
		t.Fatalf("heap query missing TopK root or heap counters:\n%s", res.Plan)
	}
}

// TestFaultTopKMidFill walks an injected read fault through every page read
// of both top-k paths — the bounded heap mid-fill and the early-terminating
// ordered scan. Every faulted run must return an error wrapping the
// injection or rows identical to the fault-free baseline at baseline-exact
// charged cost (failed I/O is never charged), and teardown must leave zero
// pinned frames with the goroutine baseline restored.
func TestFaultTopKMidFill(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT * FROM t1 WHERE costly10(t1.u10) ORDER BY t1.ua1 LIMIT 5", // heap
		"SELECT * FROM t1 WHERE costly10(t1.u10) ORDER BY t1.a1 LIMIT 5",  // ordered
	} {
		// Cold pool before every run: faults fire on physical reads, and
		// query entry no longer flushes the shared pool.
		if err := db.EvictPool(); err != nil {
			t.Fatal(err)
		}
		db.SetFaults(&predplace.FaultConfig{}) // count-only: no injection
		base, err := db.Query(sql, predplace.Migration)
		if err != nil {
			t.Fatal(err)
		}
		reads, _, _ := db.FaultCounts()
		db.SetFaults(nil)
		if reads == 0 {
			t.Fatal("no page reads observed")
		}
		// Equal keys tie-break on the full projected row: the sequence is exact.
		baseRows := harness.CanonRows(base, true)
		baseCharged := base.Stats.Charged()

		for _, p := range []int{1, 4} {
			db.SetParallelism(p)
			for n := int64(1); n <= reads; n++ {
				audit := harness.StartLeakAudit()
				if err := db.EvictPool(); err != nil {
					t.Fatal(err)
				}
				db.SetFaults(&predplace.FaultConfig{FailReadN: n})
				res, err := db.Query(sql, predplace.Migration)
				db.SetFaults(nil)
				if err != nil && !errors.Is(err, predplace.ErrInjectedFault) {
					t.Fatalf("%s P=%d failN=%d: error does not wrap the injected fault: %v", sql, p, n, err)
				}
				if err == nil {
					if !slices.Equal(harness.CanonRows(res, true), baseRows) {
						t.Fatalf("%s P=%d failN=%d: clean run rows differ from baseline", sql, p, n)
					}
					if c := res.Stats.Charged(); c > baseCharged+1e-6 || c < baseCharged-1e-6 {
						t.Fatalf("%s P=%d failN=%d: charged %v, baseline %v", sql, p, n, c, baseCharged)
					}
				}
				if err := audit.Verify(db); err != nil {
					t.Fatalf("%s P=%d failN=%d: %v", sql, p, n, err)
				}
			}
		}
		db.SetParallelism(1)
	}
}
