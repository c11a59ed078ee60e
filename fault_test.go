package predplace_test

// The randomized fault sweep: benchmark queries run under deterministic
// injected read faults and aggressive deadlines across the executor's
// serial/parallel × tuple/batched configurations. Per seed, every run must
// end in an accepted outcome — clean rows identical to the fault-free
// baseline, an error wrapping the injected fault, a DNF, or a deadline
// error — with zero pinned buffer-pool frames and the goroutine baseline
// restored afterwards. check.sh runs this under -race, so the abort paths'
// synchronization is exercised too.

import (
	"context"
	"errors"
	"testing"
	"time"

	"predplace"
	"predplace/internal/harness"
)

func TestFaultSweep(t *testing.T) {
	h, err := harness.New(0.02)
	if err != nil {
		t.Fatal(err)
	}
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	runs, err := h.FaultSweep(4, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if !r.OK {
			t.Errorf("failure contract violated: %+v", r)
		}
	}
}

// TestQueryContextCancel covers the facade surface directly: a canceled
// context aborts the query with an error reaching context.Canceled, and a
// configured timeout surfaces context.DeadlineExceeded; afterwards no
// frame stays pinned.
func TestQueryContextCancel(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.02, Tables: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM t1, t3 WHERE t1.ua1 = t3.ua1 AND costly100(t1.u10)"

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, sql, predplace.Migration); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: want context.Canceled, got %v", err)
	}

	db.SetTimeout(time.Nanosecond)
	if _, err := db.Query(sql, predplace.Migration); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout: want context.DeadlineExceeded, got %v", err)
	}
	db.SetTimeout(0)

	if got := db.PinnedFrames(); got != 0 {
		t.Fatalf("%d frames pinned after aborted queries", got)
	}

	// The same query without faults or deadline still runs cleanly.
	res, err := db.Query(sql, predplace.Migration)
	if err != nil || res.DNF {
		t.Fatalf("clean rerun failed: res=%+v err=%v", res, err)
	}
}

// TestFaultEveryReadSite exhaustively fails each page read of one join
// query, serially and in parallel: whichever operator the fault lands in —
// scan, join build, probe, rebuilt nested-loop inner — the query must
// return a wrapped injected-fault error or a clean result, and teardown
// must leave zero pinned frames and no stranded goroutines. This is the
// regression net over every mid-query error site the pin/goroutine audit
// found (half-opened nested-loop inners, abandoned fan-in batches).
func TestFaultEveryReadSite(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1, 2}, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM t1, t2 WHERE t1.ua1 = t2.ua1 AND costly10(t1.u10)"

	// Faults fire on physical reads, so every run starts from a cold pool:
	// eviction is explicit now (query entry no longer flushes the shared
	// pool), and it happens before arming the injector so eviction
	// write-backs never consume fault sites.
	if err := db.EvictPool(); err != nil {
		t.Fatal(err)
	}
	db.SetFaults(&predplace.FaultConfig{}) // count-only: no injection
	if _, err := db.Query(sql, predplace.Migration); err != nil {
		t.Fatal(err)
	}
	reads, _, _ := db.FaultCounts()
	db.SetFaults(nil)
	if reads == 0 {
		t.Fatal("no page reads observed")
	}

	for _, p := range []int{1, 4} {
		db.SetParallelism(p)
		for n := int64(1); n <= reads; n++ {
			audit := harness.StartLeakAudit()
			if err := db.EvictPool(); err != nil {
				t.Fatal(err)
			}
			db.SetFaults(&predplace.FaultConfig{FailReadN: n})
			_, err := db.Query(sql, predplace.Migration)
			db.SetFaults(nil)
			if err != nil && !errors.Is(err, predplace.ErrInjectedFault) {
				t.Fatalf("P=%d failN=%d: error does not wrap the injected fault: %v", p, n, err)
			}
			if err := audit.Verify(db); err != nil {
				t.Fatalf("P=%d failN=%d: %v", p, n, err)
			}
		}
	}
	db.SetParallelism(1)
}

// TestFaultTransferPrepass walks an injected read fault through every page
// read of a transfer-enabled query — the Bloom-filter build scans included.
// A fault landing in the prepass must abort the whole query cleanly (error
// wrapping the injected fault, zero pinned frames, goroutine baseline
// restored), never leave a half-built filter pruning rows of a later query,
// and never charge the failed I/O. A run the fault misses must return rows
// identical to the fault-free baseline.
func TestFaultTransferPrepass(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1, 2}, Transfer: true})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM t1, t2 WHERE t1.ua1 = t2.ua1 AND costly10(t1.u10)"

	// Cold pool before every run: faults fire on physical reads, and query
	// entry no longer flushes the shared pool.
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
	baseRows := harness.CanonRows(base, false)
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
				t.Fatalf("P=%d failN=%d: error does not wrap the injected fault: %v", p, n, err)
			}
			if err == nil {
				got := harness.CanonRows(res, false)
				if len(got) != len(baseRows) {
					t.Fatalf("P=%d failN=%d: clean run returned %d rows, baseline %d", p, n, len(got), len(baseRows))
				}
				for k := range got {
					if got[k] != baseRows[k] {
						t.Fatalf("P=%d failN=%d: clean run row %d differs from baseline", p, n, k)
					}
				}
				// Charged cost is deterministic; a survived fault must not
				// have charged anything extra (failed I/O is never charged).
				if c := res.Stats.Charged(); c > baseCharged+1e-6 || c < baseCharged-1e-6 {
					t.Fatalf("P=%d failN=%d: charged %v, baseline %v", p, n, c, baseCharged)
				}
			}
			if err := audit.Verify(db); err != nil {
				t.Fatalf("P=%d failN=%d: %v", p, n, err)
			}
		}
	}
	db.SetParallelism(1)

	// A charged-cost budget the prepass itself exceeds must surface as a
	// DNF — the paper's did-not-finish outcome — not an error, with nothing
	// pinned afterwards.
	audit := harness.StartLeakAudit()
	db.SetBudget(0.5)
	res, err := db.Query(sql, predplace.Migration)
	db.SetBudget(0)
	if err != nil {
		t.Fatalf("budget abort during prepass: %v", err)
	}
	if !res.DNF {
		t.Fatal("budget abort during prepass: want DNF")
	}
	if err := audit.Verify(db); err != nil {
		t.Fatal(err)
	}
}
