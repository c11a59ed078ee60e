package cost

import (
	"math"
	"testing"

	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

func TestInputStatsRankAndModule(t *testing.T) {
	s := InputStats{Sel: 0.5, Cost: 10}
	if s.Rank() != query.Rank(0.5, 10) {
		t.Fatal("InputStats.Rank disagrees with query.Rank")
	}
	m := s.Module()
	if m.Sel != 0.5 || m.Cost != 10 {
		t.Fatalf("Module = %+v", m)
	}
}

func TestJoinSelNilIsCrossProduct(t *testing.T) {
	m := &Model{}
	if m.JoinSel(nil) != 1 {
		t.Fatal("nil primary must mean selectivity 1 (cross product)")
	}
	p := &query.Predicate{Selectivity: 0.25}
	if m.JoinSel(p) != 0.25 {
		t.Fatal("JoinSel should return the predicate's selectivity")
	}
}

func TestAnnotateIndexScanVariants(t *testing.T) {
	cat := testCatalog(t)
	m := NewModel(cat, false)
	cols := []query.ColRef{{Table: "s", Col: "a1"}}

	eq := expr.I(5)
	q, _ := query.NewQuery([]string{"s"}, []*query.Predicate{{
		Kind: query.KindSelCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: "s", Col: "a1"}, Value: eq,
	}})
	query.Analyze(cat, q)

	is := &plan.IndexScan{Table: "s", Col: "a1", Eq: &eq, Matched: q.Preds[0], ColRefs: cols}
	if err := m.Annotate(is); err != nil {
		t.Fatal(err)
	}
	if math.Abs(is.EstCard-1) > 1e-9 {
		t.Fatalf("unique equality card = %v", is.EstCard)
	}
	if is.EstCost < ProbeCost || is.EstCost > ProbeCost+2 {
		t.Fatalf("probe cost = %v", is.EstCost)
	}

	// Full-index scan (no bounds): leaf walk plus a fetch per tuple.
	full := &plan.IndexScan{Table: "s", Col: "a1", ColRefs: cols}
	if err := m.Annotate(full); err != nil {
		t.Fatal(err)
	}
	if full.EstCost <= 10000*RandPageCost*0.9 {
		t.Fatalf("full index scan should cost ≈ a fetch per tuple: %v", full.EstCost)
	}

	// Range scan.
	lo := expr.I(100)
	rng := &plan.IndexScan{Table: "s", Col: "a1", Lo: &lo, Matched: q.Preds[0], ColRefs: cols}
	if err := m.Annotate(rng); err != nil {
		t.Fatal(err)
	}
	if rng.EstCost <= 0 {
		t.Fatal("range scan cost missing")
	}
}

func TestAnnotateMergeJoinSortFlags(t *testing.T) {
	cat := testCatalog(t)
	m := NewModel(cat, false)
	jp := joinPred(t, cat, "r", "a1", "s", "a1")
	mk := func(sortOuter, sortInner bool) float64 {
		j := &plan.Join{Method: plan.MergeJoin, Outer: scan(cat, t, "r"), Inner: scan(cat, t, "s"),
			Primary: jp, SortOuter: sortOuter, SortInner: sortInner}
		if err := m.Annotate(j); err != nil {
			t.Fatal(err)
		}
		return j.EstCost
	}
	both := mk(true, true)
	neither := mk(false, false)
	want := 1000*SortSpillPerTuple + 10000*SortSpillPerTuple
	if math.Abs((both-neither)-want) > 1e-6 {
		t.Fatalf("sort flags should add %v, added %v", want, both-neither)
	}
}

func TestAnnotateRejectsUnknownNodes(t *testing.T) {
	cat := testCatalog(t)
	m := NewModel(cat, false)
	if err := m.Annotate(nil); err == nil {
		t.Fatal("nil node should error")
	}
	bad := &plan.Join{Method: plan.JoinMethod(99), Outer: scan(cat, t, "r"), Inner: scan(cat, t, "s")}
	if err := m.Annotate(bad); err == nil {
		t.Fatal("unknown method should error")
	}
	missing := &plan.SeqScan{Table: "missing"}
	if err := m.Annotate(missing); err == nil {
		t.Fatal("missing table should error")
	}
}

func TestJoinInputStatsMergeAndNL(t *testing.T) {
	cat := testCatalog(t)
	m := NewModel(cat, false)
	jp := joinPred(t, cat, "r", "a1", "s", "a1")

	merge := &plan.Join{Method: plan.MergeJoin, Outer: scan(cat, t, "r"), Inner: scan(cat, t, "s"),
		Primary: jp, SortOuter: true, SortInner: false}
	if err := m.Annotate(merge); err != nil {
		t.Fatal(err)
	}
	o, i := m.JoinInputStats(merge)
	if o.Cost != SortSpillPerTuple {
		t.Fatalf("sorted outer differential = %v", o.Cost)
	}
	if i.Cost != 0 {
		t.Fatalf("pre-sorted inner differential = %v", i.Cost)
	}

	nl := &plan.Join{Method: plan.NestLoop, Outer: scan(cat, t, "r"), Inner: scan(cat, t, "s"), Primary: jp}
	if err := m.Annotate(nl); err != nil {
		t.Fatal(err)
	}
	o, i = m.JoinInputStats(nl)
	stab, _ := cat.Table("s")
	if math.Abs(o.Cost-float64(stab.Pages())*SeqPageCost) > 1e-9 {
		t.Fatalf("NL outer differential should be inner pages: %v", o.Cost)
	}
	if i.Cost != 0 {
		t.Fatalf("NL inner differential should be zero (pages constant): %v", i.Cost)
	}

	inl := &plan.Join{Method: plan.IndexNestLoop, Outer: scan(cat, t, "r"), Inner: scan(cat, t, "s"),
		Primary: jp, InnerIndexCol: "a1"}
	if err := m.Annotate(inl); err != nil {
		t.Fatal(err)
	}
	o, i = m.JoinInputStats(inl)
	if o.Cost < ProbeCost {
		t.Fatalf("index NL outer differential should include a probe: %v", o.Cost)
	}
	if i.Cost != 0 {
		t.Fatalf("index NL inner differential should be zero: %v", i.Cost)
	}
}

func TestJoinInputStatsExpensivePrimaryTerm(t *testing.T) {
	cat := testCatalog(t)
	f, _ := cat.Func("costly100")
	q, _ := query.NewQuery([]string{"r", "s"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f,
		Args: []query.ColRef{{Table: "r", Col: "u20"}, {Table: "s", Col: "u20"}},
	}})
	query.Analyze(cat, q)
	m := NewModel(cat, false)
	j := &plan.Join{Method: plan.NestLoop, Outer: scan(cat, t, "r"), Inner: scan(cat, t, "s"),
		Primary: q.Preds[0], ExpensivePrimary: true}
	if err := m.Annotate(j); err != nil {
		t.Fatal(err)
	}
	o, i := m.JoinInputStats(j)
	// c_p × {S} = 100 × 10000 dominates the outer differential (§5.2).
	if o.Cost < 100*10000 {
		t.Fatalf("outer differential missing c_p·S term: %v", o.Cost)
	}
	if i.Cost < 100*1000 {
		t.Fatalf("inner differential missing c_p·R term: %v", i.Cost)
	}
}
