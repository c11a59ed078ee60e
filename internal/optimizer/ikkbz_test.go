package optimizer

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"predplace/internal/catalog"
	"predplace/internal/plan"
	"predplace/internal/query"
)

func TestIKComposeMatchesGroupRankLaw(t *testing.T) {
	a := ikUnit{T: 1.0, C: 3}
	b := ikUnit{T: 0.1, C: 3}
	g := ikCompose(a, b)
	if math.Abs(g.T-0.1) > 1e-12 || math.Abs(g.C-6) > 1e-12 {
		t.Fatalf("compose = %+v", g)
	}
	want := (0.1 - 1) / 6.0
	if math.Abs(g.rank()-want) > 1e-12 {
		t.Fatalf("rank = %v, want %v", g.rank(), want)
	}
}

func TestIKNormalizeAscending(t *testing.T) {
	chain := []ikUnit{
		{T: 0.9, C: 1, items: []ikItem{{table: 0}}},
		{T: 0.5, C: 1, items: []ikItem{{table: 1}}},
		{T: 0.1, C: 1, items: []ikItem{{table: 2}}},
		{T: 2.0, C: 1, items: []ikItem{{table: 3}}},
	}
	out := ikNormalize(chain)
	for i := 1; i < len(out); i++ {
		if out[i-1].rank() > out[i].rank() {
			t.Fatal("ranks not ascending after normalization")
		}
	}
	// Item order must be preserved across merges.
	var items []int
	for _, u := range out {
		for _, it := range u.items {
			items = append(items, it.table)
		}
	}
	for i, want := range []int{0, 1, 2, 3} {
		if items[i] != want {
			t.Fatalf("items reordered: %v", items)
		}
	}
}

func TestIKNormalizePreservesTotalEffectQuick(t *testing.T) {
	f := func(ts, cs [4]float64) bool {
		chain := make([]ikUnit, 4)
		for i := range chain {
			chain[i] = ikUnit{
				T: math.Mod(math.Abs(ts[i]), 3) + 0.01,
				C: math.Mod(math.Abs(cs[i]), 10) + 0.01,
			}
		}
		// Total T (product) must be invariant under normalization; total C
		// must equal the ASI sequential cost, also invariant.
		prodT, seqC, prefix := 1.0, 0.0, 1.0
		for _, u := range chain {
			prodT *= u.T
			seqC += prefix * u.C
			prefix *= u.T
		}
		out := ikNormalize(chain)
		prodT2, seqC2, prefix2 := 1.0, 0.0, 1.0
		for _, u := range out {
			prodT2 *= u.T
			seqC2 += prefix2 * u.C
			prefix2 *= u.T
		}
		rel := func(a, b float64) float64 { return math.Abs(a-b) / (1 + math.Abs(a)) }
		return rel(prodT, prodT2) < 1e-9 && rel(seqC, seqC2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildIKGraphTree(t *testing.T) {
	db := benchDB(t, 1, 3, 10)
	q := mkQuery(t, db, []string{"t1", "t3", "t10"}, []*query.Predicate{
		jp("t1", "ua1", "t10", "ua1"),
		jp("t3", "ua1", "t10", "ua1"),
	})
	adj, err := buildIKGraph(q)
	if err != nil {
		t.Fatal(err)
	}
	// Star centered on t10 (index 2): degree 2.
	if len(adj[2]) != 2 || len(adj[0]) != 1 || len(adj[1]) != 1 {
		t.Fatalf("adjacency = %v", adj)
	}
}

func TestBuildIKGraphRejectsCycle(t *testing.T) {
	db := benchDB(t, 1, 3, 10)
	q := mkQuery(t, db, []string{"t1", "t3", "t10"}, []*query.Predicate{
		jp("t1", "ua1", "t10", "ua1"),
		jp("t3", "ua1", "t10", "ua1"),
		jp("t1", "a10", "t3", "a10"),
	})
	if _, err := buildIKGraph(q); err == nil {
		t.Fatal("cycle should be rejected")
	}
}

func TestBuildIKGraphRejectsDisconnected(t *testing.T) {
	db := benchDB(t, 1, 3)
	q := mkQuery(t, db, []string{"t1", "t3"}, nil)
	if _, err := buildIKGraph(q); err == nil {
		t.Fatal("disconnected graph should be rejected")
	}
}

func TestLDLIKKBZCloseToExhaustiveLDL(t *testing.T) {
	// On acyclic queries, the polynomial orderer should land within a small
	// factor of the exhaustive LDL enumeration (its ASI cost model is an
	// abstraction of the real one, so exact ties are not guaranteed).
	db := benchDB(t, 1, 3, 9, 10)
	queries := []func() *query.Query{
		func() *query.Query {
			return mkQuery(t, db, []string{"t3", "t9"}, []*query.Predicate{
				jp("t3", "ua1", "t9", "ua1"),
				fp(t, db, "costly100", query.ColRef{Table: "t9", Col: "u20"}),
			})
		},
		func() *query.Query {
			return mkQuery(t, db, []string{"t3", "t10", "t1"}, []*query.Predicate{
				jp("t3", "ua1", "t10", "ua1"),
				jp("t10", "ua1", "t1", "ua1"),
				fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u20"}),
			})
		},
		func() *query.Query {
			return mkQuery(t, db, []string{"t1", "t3", "t9", "t10"}, []*query.Predicate{
				jp("t1", "ua1", "t3", "ua1"),
				jp("t3", "ua1", "t10", "ua1"),
				jp("t9", "a10", "t10", "a10"),
				fp(t, db, "costly10", query.ColRef{Table: "t9", Col: "u10"}),
			})
		},
	}
	for qi, mk := range queries {
		ik, _ := planWith(t, db, LDLIKKBZ, mk())
		ldl, _ := planWith(t, db, LDL, mk())
		if ik.Cost() > ldl.Cost()*2.5 {
			t.Fatalf("query %d: IK-KBZ (%v) too far from exhaustive LDL (%v)", qi, ik.Cost(), ldl.Cost())
		}
		if ldl.Cost() > ik.Cost()*1.0001 {
			t.Fatalf("query %d: exhaustive LDL (%v) lost to IK-KBZ (%v)?", qi, ldl.Cost(), ik.Cost())
		}
	}
}

func TestLDLIKKBZFallsBackOnCycle(t *testing.T) {
	db := benchDB(t, 1, 3, 10)
	q := mkQuery(t, db, []string{"t1", "t3", "t10"}, []*query.Predicate{
		jp("t1", "ua1", "t10", "ua1"),
		jp("t3", "ua1", "t10", "ua1"),
		jp("t1", "a10", "t3", "a10"),
		fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u20"}),
	})
	root, _ := planWith(t, db, LDLIKKBZ, q) // must not error: exhaustive fallback
	if root.Cost() <= 0 {
		t.Fatal("fallback produced a bad plan")
	}
}

func TestLDLIKKBZSingleTable(t *testing.T) {
	db := benchDB(t, 3)
	q := mkQuery(t, db, []string{"t3"}, []*query.Predicate{
		fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u20"}),
		fp(t, db, "costly1", query.ColRef{Table: "t3", Col: "u10"}),
	})
	root, _ := planWith(t, db, LDLIKKBZ, q)
	if root.Card() <= 0 {
		t.Fatal("bad single-table plan")
	}
}

func TestDisableUnpruneableAblation(t *testing.T) {
	// With retention disabled, Migration may do worse (never better).
	db := benchDB(t, 1, 3, 10)
	mk := func() *query.Query {
		return mkQuery(t, db, []string{"t3", "t10", "t1"}, []*query.Predicate{
			jp("t3", "ua1", "t10", "ua1"),
			jp("t10", "ua1", "t1", "ua1"),
			fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u20"}),
		})
	}
	full := New(db.Cat, Options{Algorithm: Migration})
	ablated := New(db.Cat, Options{Algorithm: Migration, DisableUnpruneable: true})
	rootFull, infoFull, err := full.Plan(mk())
	if err != nil {
		t.Fatal(err)
	}
	rootAbl, infoAbl, err := ablated.Plan(mk())
	if err != nil {
		t.Fatal(err)
	}
	if rootFull.Cost() > rootAbl.Cost()*1.0001 {
		t.Fatalf("retention made Migration worse: %v vs %v", rootFull.Cost(), rootAbl.Cost())
	}
	if infoAbl.PlansRetained > infoFull.PlansRetained {
		t.Fatalf("ablation retained more plans (%d) than full (%d)?",
			infoAbl.PlansRetained, infoFull.PlansRetained)
	}
}

// TestWideJoinKeepsEveryJoinPredicate: LDL-IKKBZ has no table cap, so its
// join shapes are memoized for outer sets of up to 31 tables. Every (outer
// set, inner table) pair must get its own shape — a shared one joins a table
// on another pair's predicate and loses its own — so on 31-table path
// queries, whichever end of the path the high table indices sit at, each
// join predicate appears exactly once in the plan.
func TestWideJoinKeepsEveryJoinPredicate(t *testing.T) {
	const n = 31
	cat := wideCatalog(t, n)
	paths := map[string][]int{"ascending": nil, "descending": nil, "w28 then w12 last": nil}
	for i := 0; i < n; i++ {
		paths["ascending"] = append(paths["ascending"], i)
		paths["descending"] = append(paths["descending"], n-1-i)
		if i != 12 && i != 28 {
			paths["w28 then w12 last"] = append(paths["w28 then w12 last"], i)
		}
	}
	paths["w28 then w12 last"] = append(paths["w28 then w12 last"], 28, 12)
	for name, path := range paths {
		var tables []string
		var preds []*query.Predicate
		for i := 0; i < n; i++ {
			tables = append(tables, fmt.Sprintf("w%d", i))
		}
		for i := 1; i < n; i++ {
			preds = append(preds, jp(tables[path[i-1]], "k", tables[path[i]], "k"))
		}
		q, err := query.NewQuery(tables, preds)
		if err != nil {
			t.Fatal(err)
		}
		root, _, err := New(cat, Options{Algorithm: LDLIKKBZ}).Plan(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		uses := map[*query.Predicate]int{}
		plan.Walk(root, func(nd plan.Node) {
			switch x := nd.(type) {
			case *plan.Join:
				uses[x.Primary]++
			case *plan.Filter:
				uses[x.Pred]++
			}
		})
		for _, p := range q.Preds {
			if uses[p] != 1 {
				t.Errorf("%s: %s appears %d times in the plan, want once", name, p, uses[p])
			}
		}
	}
}

// TestTooManyTables: table sets are 32-bit, and a 33rd table is refused
// rather than planned without its predicates.
func TestTooManyTables(t *testing.T) {
	cat := wideCatalog(t, 33)
	var tables []string
	var preds []*query.Predicate
	for i := 0; i < 33; i++ {
		tables = append(tables, fmt.Sprintf("w%d", i))
		if i > 0 {
			preds = append(preds, jp(tables[i-1], "k", tables[i], "k"))
		}
	}
	q, err := query.NewQuery(tables, preds)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := New(cat, Options{Algorithm: LDLIKKBZ}).Plan(q); err == nil {
		t.Fatal("a 33-table query planned")
	}
}

// TestIKKBZDeterministic: equal-rank subtrees are merged in adjacency order,
// which buildIKGraph takes from q.Preds — never from map iteration — so
// repeated plannings of a statement with a rank tie yield one plan.
func TestIKKBZDeterministic(t *testing.T) {
	db := benchDB(t, 1, 2, 3)
	chain := func() (*query.Query, *catalog.Catalog) {
		return mkQuery(t, db, []string{"t2", "t1", "t3"}, []*query.Predicate{
			jp("t2", "ua1", "t1", "ua1"),
			jp("t1", "ua1", "t3", "ua1"),
		}), db.Cat
	}
	wide := wideCatalog(t, 4)
	star := func() (*query.Query, *catalog.Catalog) {
		q, err := query.NewQuery([]string{"w0", "w1", "w2", "w3"}, []*query.Predicate{
			jp("w0", "k", "w3", "k"),
			jp("w0", "k", "w1", "k"),
			jp("w0", "k", "w2", "k"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return q, wide
	}
	for name, mk := range map[string]func() (*query.Query, *catalog.Catalog){"chain": chain, "star": star} {
		var first string
		for i := 0; i < 300; i++ {
			q, cat := mk()
			root, _, err := New(cat, Options{Algorithm: LDLIKKBZ}).Plan(q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := plan.Render(root)
			if i == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s: planning %d chose\n%s\nplanning 0 chose\n%s", name, i, got, first)
			}
		}
	}
}
