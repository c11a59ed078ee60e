package predplace_test

import (
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"predplace"
	"predplace/internal/exec"
	"predplace/internal/expr"
	"predplace/internal/harness"
)

// nlMemoAllocParent is what one execution of Query 5 (Migration, caching
// on, scale 0.02, collector off) allocated before nested loops kept a
// per-sweep memo of their cached primary's verdicts: the highest of four
// runs of TestNLSweepMemoAllocs's loop (2 216 to 2 220).
const nlMemoAllocParent = 2220 // objects

// TestNLSweepMemoAllocs: the memo a nested loop keeps over its cached
// primary's inner bindings is cleared, not remade, at every rescan, so
// answering Query 5's ~167 000 repeat pairs from it costs a handful of
// allocations per execution, not one per sweep or per pair.
func TestNLSweepMemoAllocs(t *testing.T) {
	if exec.SlabPoison {
		t.Skip("under the race detector sync.Pool drops a quarter of its puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	db, err := predplace.Open(predplace.Config{Scale: 0.02, Caching: true, PoolPages: 464})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.Prepare(harness.Query5, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Exec(); err != nil { // slabs on the free list
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ps.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	const budget = nlMemoAllocParent + 64
	t.Logf("Query 5: %d allocs per execution (parent %d, budget %d)", allocs, nlMemoAllocParent, budget)
	if allocs > budget {
		t.Fatalf("Query 5 allocates %d objects per execution, budget %d", allocs, budget)
	}
}

// TestNLMemoNullAndZero: a nested loop's sweep memo keys an int inner
// column's NULL apart from its 0. The join predicate holds when exactly one
// side is NULL or both are equal, so a NULL and a 0 in one sweep of the inner
// get different verdicts, and each join column holds both, in both orders,
// whichever side the planner makes the inner. Rows and cache counts must be
// those of a run whose tables are bounded (CacheMaxEntries), which keeps the
// per-row protocol and no memo; the bound is never reached, so the two count
// the same hits. At width 1 the inner scan meets each record after the memo
// has settled the values before it, so it drops on the record what the memo
// rejects, NULL included; at width 256 one batch holds the whole inner.
// TestQuery5ExplainAnalyze: a plain Open registers every function the
// paper's queries call, Query 5's selective100 included, so EXPLAIN ANALYZE
// runs Query 5 with nothing registered by hand.
func TestQuery5ExplainAnalyze(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("EXPLAIN ANALYZE "+harness.Query5, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explained || res.Stats.Rows == 0 || !strings.Contains(res.Plan, "selective100") ||
		strings.Contains(res.Plan, "actual=n/a") {
		t.Fatalf("EXPLAIN ANALYZE of Query 5: %d rows\n%s", res.Stats.Rows, res.Plan)
	}
}

func TestNLMemoNullAndZero(t *testing.T) {
	for _, bs := range []int{1, 7, 256} {
		testNLMemoNullAndZero(t, bs)
	}
}

func testNLMemoNullAndZero(t *testing.T, batchSize int) {
	run := func(cacheMax int) (string, predplace.Stats) {
		db, err := predplace.Open(predplace.Config{Caching: true, CacheMaxEntries: cacheMax, BatchSize: batchSize})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterFunc("nulleq", 2, 10, 0.5, func(args []predplace.Value) predplace.Value {
			a, b := args[0], args[1]
			return expr.B(a.IsNull() != b.IsNull() || !a.IsNull() && a.I == b.I)
		}); err != nil {
			t.Fatal(err)
		}
		for _, tab := range []struct {
			name string
			rows [][]interface{}
		}{
			{"r", [][]interface{}{{0, 1}, {nil, 2}, {5, 3}, {nil, 4}, {0, 5}, {7, 6}}},
			{"s", [][]interface{}{{0, 1}, {nil, 2}, {0, 3}, {7, 4}, {nil, 5}, {0, 6}, {nil, 7}}},
		} {
			if err := db.CreateTable(tab.name, []predplace.ColumnSpec{{Name: "v"}, {Name: "id"}}); err != nil {
				t.Fatal(err)
			}
			for _, row := range tab.rows {
				if err := db.Insert(tab.name, row...); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Analyze(tab.name); err != nil {
				t.Fatal(err)
			}
		}
		res, err := db.Query("SELECT * FROM r, s WHERE nulleq(r.v, s.v)", predplace.PushDown)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan, "NestLoop") {
			t.Fatalf("plan has no nested loop:\n%s", res.Plan)
		}
		var got []string
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			got = append(got, strings.Join(cells, ","))
		}
		sort.Strings(got)
		return strings.Join(got, " "), res.Stats
	}
	rows, stats := run(0)
	wantRows, want := run(1 << 20)
	if rows != wantRows {
		t.Fatalf("BatchSize %d: rows with the sweep memo:\n%s\nper-row protocol:\n%s", batchSize, rows, wantRows)
	}
	if stats.CacheHits != want.CacheHits || stats.CacheMisses != want.CacheMisses || stats.CacheEntries != want.CacheEntries {
		t.Fatalf("BatchSize %d: cache hits/misses/entries %d/%d/%d, per-row protocol %d/%d/%d", batchSize,
			stats.CacheHits, stats.CacheMisses, stats.CacheEntries, want.CacheHits, want.CacheMisses, want.CacheEntries)
	}
	if got, want := stats.Invocations["nulleq"], want.Invocations["nulleq"]; got != want {
		t.Fatalf("BatchSize %d: %d invocations, per-row protocol %d", batchSize, got, want)
	}
	if stats.CacheHits == 0 {
		t.Fatal("no cache hits: no inner value repeats within a sweep")
	}
}
