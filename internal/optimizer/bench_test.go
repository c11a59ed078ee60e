package optimizer

import (
	"fmt"
	"testing"

	"predplace/internal/plan"
	"predplace/internal/query"
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

// TestPlanAllocBudget is the deterministic half of the planning-time claim:
// allocation counts repeat exactly, wall-clock does not. It plans each of
// plan_only's 45 (statement, algorithm) legs as bench/workloads.go does and
// holds it to 10 % above what it allocated once a losing DP candidate and a
// migration pass stopped costing heap (PlanTimeQuery: Migration 18 313
// allocations when every candidate join was built twice, 6 171 while every
// candidate was a heap node, 1 107 since; Robust 186 840, 66 073, 7 374, and
// 3 173 since its ÷e scaling plans with one enumeration and no unpruneable
// retention), so a change that brings any of that back trips it. Allocation
// counts differ under the race detector, which this test leaves alone.
func TestPlanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ceilings := map[string][5]float64{ // by planOnlyAlgos
		"plantime":                 {474, 554, 1218, 3491, 535},
		"query4":                   {108, 115, 261, 779, 193},
		"query5":                   {219, 219, 311, 1267, 274},
		"star-2sel":                {118, 140, 397, 1037, 218},
		"chain-4way":               {215, 228, 329, 1312, 277},
		"dup-join-mixed":           {128, 137, 417, 1139, 225},
		"cycle-extra-pred":         {136, 145, 386, 1226, 703},
		"range-and-func":           {73, 82, 139, 557, 131},
		"two-expensive-same-table": {65, 72, 135, 481, 132},
	}
	db := corpusDB(t)
	for _, s := range corpusFixed[:9] {
		q, _ := bindCorpus(t, db, s.sql)
		for i, a := range planOnlyAlgos {
			got := testing.AllocsPerRun(5, func() {
				root, _, err := New(db.Cat, Options{Algorithm: a.algo}).Plan(q)
				if err != nil {
					t.Fatal(err)
				}
				benchSink = root
			})
			ceiling := ceilings[s.name][i]
			t.Logf("%s/%s: %.0f allocs per planning (ceiling %.0f)", s.name, a.name, got, ceiling)
			if got > ceiling {
				t.Errorf("%s/%s: %.0f allocs per planning, budget %.0f", s.name, a.name, got, ceiling)
			}
		}
	}
}

// cliqueQuery joins the first n of wideCatalog's tables pairwise.
func cliqueQuery(t *testing.T, n int) *query.Query {
	var tables []string
	var preds []*query.Predicate
	for i := 0; i < n; i++ {
		tables = append(tables, fmt.Sprintf("w%d", i))
		for j := 0; j < i; j++ {
			preds = append(preds, jp(tables[j], "k", tables[i], "k"))
		}
	}
	q, err := query.NewQuery(tables, preds)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestDPAllocatesForWhatItRetains: the System R DP allocates for the
// subplans it retains, not for the candidates it builds. In a clique join
// every table a subset gains adds a connecting predicate, and with it a hash
// and a merge join, to each of the subset's join shapes, so from four tables
// to seven the candidates per retained subplan grow several-fold (and so
// did the allocations per retained subplan while every candidate was a heap
// node: 40 to 154). Here they may grow by a quarter.
func TestDPAllocatesForWhatItRetains(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cat := wideCatalog(t, 7)
	for _, algo := range []Algorithm{PushDown, Migration} {
		var perRetained [2]float64
		for i, n := range []int{4, 7} {
			q := cliqueQuery(t, n)
			var info *Info
			allocs := testing.AllocsPerRun(3, func() {
				var err error
				if _, info, err = New(cat, Options{Algorithm: algo}).Plan(q); err != nil {
					t.Fatal(err)
				}
			})
			perRetained[i] = allocs / float64(info.PlansRetained)
			t.Logf("%v, %d tables: %.0f allocs, %d subplans retained", algo, n, allocs, info.PlansRetained)
		}
		if perRetained[1] > 1.25*perRetained[0] {
			t.Errorf("%v: %.1f allocs per retained subplan at seven tables, %.1f at four",
				algo, perRetained[1], perRetained[0])
		}
	}
}

// TestMigrationPassesRunInPlace: a stream pass works on the migration's
// scratch and rewrites the filter lists within their own storage, so a pass
// allocates nothing, and what migrating a plan allocates (the flat plan, a
// tree per placement, a signature per round that moved something) does not
// depend on how many passes it runs.
func TestMigrationPassesRunInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	db := corpusDB(t)
	q, _ := bindCorpus(t, db, corpusFixed[0].sql) // five tables
	seed, _, err := New(db.Cat, Options{Algorithm: PushDown}).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	// migrate's second call on the PushDown plan, after a first grew the
	// scratch: one round of stream passes, or rounds until the fixpoint.
	var allocs [2]float64
	var passes [2]int
	for i, max := range []int{1, 24} {
		opt := New(db.Cat, Options{Algorithm: Migration, MaxMigrationPasses: max})
		if opt.skel, err = newSkeleton(db.Cat, q); err != nil {
			t.Fatal(err)
		}
		opt.model.Bind(opt.skel.tabs)
		if _, _, err := opt.migrate(seed); err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(5, func() {
			if _, passes[i], err = opt.migrate(seed); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("MaxMigrationPasses %d: %d passes, %.0f allocs", max, passes[i], allocs[i])
		if i == 0 {
			continue
		}
		// The last call left its flat plan at the fixpoint: rounds of passes
		// there rewrite every list as it was.
		m := opt.mig
		rounds := testing.AllocsPerRun(5, func() {
			for r := 0; r < 10; r++ {
				for k := len(m.f.Steps); k >= 0; k-- {
					if _, err := m.stream(k); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
		if rounds != 0 {
			t.Errorf("ten rounds of stream passes at the fixpoint allocate %.0f times", rounds)
		}
	}
	if passes[0] == passes[1] {
		t.Fatalf("both calls ran %d passes; the test needs a plan that takes more than one round", passes[0])
	}
	if allocs[0] != allocs[1] || allocs[1] > 56 {
		t.Errorf("migrating the plan allocates %.0f times in %d passes and %.0f in %d, want equal counts within 56",
			allocs[0], passes[0], allocs[1], passes[1])
	}
}
