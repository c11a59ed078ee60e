package predplace_test

// The multi-session stress test: N goroutines run a mixed query workload
// through one Server (every session admitted) while another goroutine
// churns the execution knobs, and every result must equal its serial
// baseline — rows and charged cost both — with the plan cache hit. This
// is the engine's isolation contract under the race detector (check.sh
// runs the package with -race): per-query I/O accounting, UDF counters,
// predicate-cache scope, and knob snapshots never let one session's
// activity leak into another's measurement.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"predplace"
	"predplace/internal/harness"
)

var sessionQueries = []string{
	"SELECT * FROM t1, t2 WHERE t1.ua1 = t2.ua1 AND costly10(t1.u10)",
	"SELECT * FROM t1 WHERE costly10(t1.u10) AND t1.u20 < 15",
	"SELECT COUNT(*) FROM t2 WHERE costly100(t2.u20)",
	"SELECT t2.a1, t2.ua1 FROM t2 WHERE t2.u10 = 3",
}

func TestConcurrentSessionsMatchSerial(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sessions, iters := 8, 10
	if testing.Short() {
		sessions, iters = 4, 4
	}
	// Every session gets a slot: this is execution under concurrency, not
	// shedding (TestServerShedsWithoutQueue, TestServerTenantQuota).
	srv := predplace.NewServer(db, predplace.ServerConfig{MaxConcurrent: sessions})
	hits0, _, _, _ := db.PlanCacheStats()

	for _, caching := range []bool{false, true} {
		// Serial baselines under this leg's caching setting, default knobs.
		db.SetOptions(func(c *predplace.Config) { c.Caching, c.Parallelism, c.BatchSize, c.Profile = caching, 1, 0, false })
		type baseline struct {
			rows    []string
			charged float64
		}
		base := make([]baseline, len(sessionQueries))
		for i, sql := range sessionQueries {
			res, err := db.Query(sql, predplace.Migration)
			if err != nil {
				t.Fatalf("caching=%v baseline %q: %v", caching, sql, err)
			}
			base[i] = baseline{rows: harness.CanonRows(res, false), charged: res.Stats.Charged()}
		}

		// Knob churn: batching and profiling never change results or charged
		// cost; neither does parallelism with caching off. With caching on,
		// parallel workers' interleaving changes which tuple warms a cache
		// entry first, so that leg pins parallelism at 1 and churns only the
		// invariant knobs.
		stop := make(chan struct{})
		var churn sync.WaitGroup
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				db.SetOptions(func(c *predplace.Config) { c.BatchSize, c.Profile = []int{0, 1, 7, 64}[i%4], i%3 == 0 })
				if !caching {
					db.SetOptions(func(c *predplace.Config) { c.Parallelism = []int{1, 2, 4}[i%3] })
				}
			}
		}()

		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(offset int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					qi := (offset + i) % len(sessionQueries)
					res, err := srv.Query(context.Background(), fmt.Sprintf("session-%d", offset),
						sessionQueries[qi], predplace.Migration)
					if err != nil {
						errs <- err
						return
					}
					if got := res.Stats.Charged(); got != base[qi].charged {
						t.Errorf("caching=%v session %d %q: charged %v, serial %v",
							caching, offset, sessionQueries[qi], got, base[qi].charged)
						return
					}
					got := harness.CanonRows(res, false)
					want := base[qi].rows
					if len(got) != len(want) {
						t.Errorf("caching=%v session %d %q: %d rows, serial %d",
							caching, offset, sessionQueries[qi], len(got), len(want))
						return
					}
					for k := range got {
						if got[k] != want[k] {
							t.Errorf("caching=%v session %d %q: row %d differs from serial",
								caching, offset, sessionQueries[qi], k)
							return
						}
					}
				}
			}(s)
		}
		wg.Wait()
		close(stop)
		churn.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("caching=%v: %v", caching, err)
		}
		db.SetOptions(func(c *predplace.Config) { c.Parallelism, c.BatchSize, c.Profile = 1, 0, false })
		if got := db.PinnedFrames(); got != 0 {
			t.Fatalf("caching=%v: %d frames pinned after the stress", caching, got)
		}
	}
	// Four statements run sessions × iters times each leg: all but the first
	// execution of each should skip parse, bind and optimize.
	if hits, _, _, _ := db.PlanCacheStats(); hits == hits0 {
		t.Fatal("the plan cache never hit")
	}
}

// TestConcurrentPreparedExec executes one PreparedStatement from many
// goroutines at once: the shared immutable plan must produce the serial
// result in every execution.
func TestConcurrentPreparedExec(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM t1, t2 WHERE t1.ua1 = t2.ua1 AND costly10(t1.u10)"
	p, err := db.Prepare(sql, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	baseRows, baseCharged := harness.CanonRows(base, false), base.Stats.Charged()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := p.Exec()
				if err != nil {
					t.Error(err)
					return
				}
				if res.Stats.Charged() != baseCharged {
					t.Errorf("charged %v, want %v", res.Stats.Charged(), baseCharged)
					return
				}
				got := harness.CanonRows(res, false)
				for k := range got {
					if got[k] != baseRows[k] {
						t.Errorf("row %d differs across concurrent Exec", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
