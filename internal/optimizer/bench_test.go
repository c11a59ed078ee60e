package optimizer

import (
	"testing"

	"predplace/internal/plan"
)

// planOnlyAlgos are the five algorithms bench/workloads.go's plan_only
// prepares each of its nine statements (corpusFixed[:9]) under.
var planOnlyAlgos = []struct {
	name string
	algo Algorithm
}{
	{"pushdown", PushDown},
	{"pullrank", PullRank},
	{"migration", Migration},
	{"robust", Robust},
	{"ldl-ikkbz", LDLIKKBZ},
}

var benchSink plan.Node

// BenchmarkPlan times Optimizer.Plan alone (the query is bound once) over
// plan_only's 9 × 5 grid.
func BenchmarkPlan(b *testing.B) {
	db := corpusDB(b)
	for _, s := range corpusFixed[:9] {
		q, _ := bindCorpus(b, db, s.sql)
		for _, a := range planOnlyAlgos {
			b.Run(s.name+"/"+a.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					root, _, err := New(db.Cat, Options{Algorithm: a.algo}).Plan(q)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = root
				}
			})
		}
	}
}

// BenchmarkAnnotateFrontier prices the top join of the §4.4 query's PushDown
// plan the way the DP prices a candidate — its two inputs already priced —
// against re-pricing the whole tree.
func BenchmarkAnnotateFrontier(b *testing.B) {
	db := corpusDB(b)
	q, _ := bindCorpus(b, db, corpusFixed[0].sql)
	opt := New(db.Cat, Options{Algorithm: PushDown})
	root, _, err := opt.Plan(q)
	if err != nil {
		b.Fatal(err)
	}
	_, top := plan.TopFilters(root)
	join := top.(*plan.Join)
	b.Run("whole-tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := opt.Model().Annotate(root); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frontier", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := opt.Model().AnnotateAbove(root, join.Outer, join.Inner); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// planAllocs counts heap allocations of one planning of the §4.4 query.
func planAllocs(tb testing.TB, algo Algorithm) float64 {
	db := corpusDB(tb)
	q, _ := bindCorpus(tb, db, corpusFixed[0].sql)
	return testing.AllocsPerRun(5, func() {
		root, _, err := New(db.Cat, Options{Algorithm: algo}).Plan(q)
		if err != nil {
			tb.Fatal(err)
		}
		benchSink = root
	})
}

// TestPlanAllocBudget is the deterministic half of the planning-time claim:
// allocation counts repeat exactly, wall-clock does not. The ceilings are
// half of what one planning of PlanTimeQuery allocated when every candidate
// join was built twice, given a column list and priced from its leaves up
// (Migration 18 313, Robust 186 840 allocations; 6 171 and 66 072 since), so
// a change that brings any of that back trips them.
func TestPlanAllocBudget(t *testing.T) {
	for _, c := range []struct {
		algo    Algorithm
		ceiling float64
	}{
		{Migration, 9156},
		{Robust, 93420},
	} {
		got := planAllocs(t, c.algo)
		t.Logf("%v: %.0f allocs per planning (ceiling %.0f)", c.algo, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%v: %.0f allocs per planning of PlanTimeQuery, budget %.0f", c.algo, got, c.ceiling)
		}
	}
}
