package predplace_test

import (
	"regexp"
	"slices"
	"testing"

	"predplace"
	"predplace/internal/harness"
)

// TestParallelismKnobDefaultsSerial pins the facade contract: Parallelism 0
// and 1 both mean the serial executor, and a negative value resolves to the
// machine's processor count.
func TestParallelismKnobDefaultsSerial(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Parallelism(); got != 1 {
		t.Fatalf("default parallelism = %d, want 1", got)
	}
	db.SetParallelism(-1)
	if got := db.Parallelism(); got < 1 {
		t.Fatalf("negative parallelism resolved to %d", got)
	}
	db.SetParallelism(0)
	if got := db.Parallelism(); got != 1 {
		t.Fatalf("parallelism 0 should mean serial, got %d", got)
	}
}

// TestProfileUnderExchange: what EXPLAIN ANALYZE reports of the figure
// queries does not depend on the worker count. The root's I/O is the
// query's — an exchange is counted and timed once, by its consumer, never
// once per worker — and every node's rows, predicate evaluations and
// invocations are the serial run's, also inside a segment, where each
// worker's copy of the node adds to the same counters.
func TestProfileUnderExchange(t *testing.T) {
	db, _ := goldenDBs(t, false)
	basePoint().applyTo(db)
	defer db.SetParallelism(1)
	actual := regexp.MustCompile(`actual=\S+`)
	var counts func(p *predplace.OpProfile, out []int64) []int64
	counts = func(p *predplace.OpProfile, out []int64) []int64 {
		out = append(out, p.ActRows, p.PredEvals, p.Invocations)
		for _, c := range p.Children {
			out = counts(c, out)
		}
		return out
	}
	figures := []string{harness.Query1, harness.Query2, harness.Query3, harness.Query4, harness.Query5}
	for i, sql := range figures {
		for _, algo := range []predplace.Algorithm{predplace.PushDown, predplace.Migration} {
			var wantCol []string
			var want []int64
			for _, par := range []int{1, 3} {
				db.SetParallelism(par)
				res, err := db.Query("EXPLAIN ANALYZE "+sql, algo)
				if err != nil {
					t.Fatalf("query%d %v P=%d: %v", i+1, algo, par, err)
				}
				if res.Profile.IO != res.Stats.IO {
					t.Errorf("query%d %v P=%d: root profile I/O %+v, the query's %+v", i+1, algo, par, res.Profile.IO, res.Stats.IO)
				}
				col, got := actual.FindAllString(res.Plan, -1), counts(res.Profile, nil)
				if par == 1 {
					wantCol, want = col, got
					continue
				}
				if !slices.Equal(col, wantCol) {
					t.Errorf("query%d %v P=%d: actual= column %v, serial %v", i+1, algo, par, col, wantCol)
				}
				if !slices.Equal(got, want) {
					t.Errorf("query%d %v P=%d: per-node rows/evals/invocations %v, serial %v\n%s", i+1, algo, par, got, want, res.Plan)
				}
			}
		}
	}
}
