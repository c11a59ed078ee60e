package query

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"predplace/internal/catalog"
	"predplace/internal/expr"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	mk := func(name string, card int64) {
		tab := &catalog.Table{
			Name: name,
			Columns: []catalog.Column{
				{Name: "a1", Type: expr.TInt, Distinct: card, Min: 0, Max: card - 1},
				{Name: "u20", Type: expr.TInt, Distinct: card / 20, Min: 0, Max: card/20 - 1},
			},
			Card:       card,
			TupleBytes: 100,
		}
		if err := c.AddTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	mk("r", 1000)
	mk("s", 10000)
	if err := c.RegisterFunc(expr.NewCostly("costly100", 1, 100, 0.5, 1)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewQueryAssignsTables(t *testing.T) {
	f := expr.NewCostly("f", 1, 10, 0.5, 2)
	q, err := NewQuery([]string{"r", "s"}, []*Predicate{
		{Kind: KindJoinCmp, Op: expr.OpEQ, Left: ColRef{"r", "a1"}, Right: ColRef{"s", "a1"}},
		{Kind: KindSelCmp, Op: expr.OpEQ, Left: ColRef{"s", "u20"}, Value: expr.I(3)},
		{Kind: KindFunc, Func: f, Args: []ColRef{{"r", "u20"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Preds[0].Tables; len(got) != 2 || got[0] != "r" || got[1] != "s" {
		t.Fatalf("join pred tables = %v", got)
	}
	if got := q.Preds[1].Tables; len(got) != 1 || got[0] != "s" {
		t.Fatalf("sel pred tables = %v", got)
	}
	if !q.Preds[0].IsJoin() || q.Preds[1].IsJoin() || q.Preds[2].IsJoin() {
		t.Fatal("IsJoin misclassified")
	}
	if q.Preds[0].ID != 0 || q.Preds[2].ID != 2 {
		t.Fatal("IDs not assigned")
	}
}

func TestNewQueryRejectsBadInput(t *testing.T) {
	if _, err := NewQuery([]string{"r", "r"}, nil); err == nil {
		t.Fatal("duplicate table should fail")
	}
	if _, err := NewQuery([]string{"r"}, []*Predicate{
		{Kind: KindSelCmp, Left: ColRef{"zzz", "a"}, Op: expr.OpEQ, Value: expr.I(1)},
	}); err == nil {
		t.Fatal("unknown table in predicate should fail")
	}
}

func TestAnalyzeSelectionEquality(t *testing.T) {
	c := testCatalog(t)
	q, _ := NewQuery([]string{"s"}, []*Predicate{
		{Kind: KindSelCmp, Op: expr.OpEQ, Left: ColRef{"s", "u20"}, Value: expr.I(3)},
	})
	if err := Analyze(c, q); err != nil {
		t.Fatal(err)
	}
	p := q.Preds[0]
	if math.Abs(p.Selectivity-1.0/500.0) > 1e-12 {
		t.Fatalf("equality selectivity = %v, want 1/500", p.Selectivity)
	}
	if p.CostPerTuple != 0 || p.IsExpensive() {
		t.Fatal("simple comparison must be free")
	}
}

func TestAnalyzeRangeSelectivity(t *testing.T) {
	c := testCatalog(t)
	q, _ := NewQuery([]string{"s"}, []*Predicate{
		{Kind: KindSelCmp, Op: expr.OpLT, Left: ColRef{"s", "a1"}, Value: expr.I(2500)},
		{Kind: KindSelCmp, Op: expr.OpGE, Left: ColRef{"s", "a1"}, Value: expr.I(2500)},
	})
	if err := Analyze(c, q); err != nil {
		t.Fatal(err)
	}
	if s := q.Preds[0].Selectivity; math.Abs(s-0.25) > 0.01 {
		t.Fatalf("LT selectivity = %v, want ~0.25", s)
	}
	if s := q.Preds[1].Selectivity; math.Abs(s-0.75) > 0.01 {
		t.Fatalf("GE selectivity = %v, want ~0.75", s)
	}
}

func TestAnalyzeJoinSelectivity(t *testing.T) {
	c := testCatalog(t)
	q, _ := NewQuery([]string{"r", "s"}, []*Predicate{
		{Kind: KindJoinCmp, Op: expr.OpEQ, Left: ColRef{"r", "a1"}, Right: ColRef{"s", "a1"}},
	})
	if err := Analyze(c, q); err != nil {
		t.Fatal(err)
	}
	// 1/max(1000, 10000)
	if s := q.Preds[0].Selectivity; math.Abs(s-1e-4) > 1e-12 {
		t.Fatalf("join selectivity = %v, want 1e-4", s)
	}
}

func TestAnalyzeFuncPredicate(t *testing.T) {
	c := testCatalog(t)
	f, _ := c.Func("costly100")
	q, _ := NewQuery([]string{"r"}, []*Predicate{
		{Kind: KindFunc, Func: f, Args: []ColRef{{"r", "u20"}}},
	})
	if err := Analyze(c, q); err != nil {
		t.Fatal(err)
	}
	p := q.Preds[0]
	if p.CostPerTuple != 100 || p.Selectivity != 0.5 {
		t.Fatalf("func pred: cost=%v sel=%v", p.CostPerTuple, p.Selectivity)
	}
	if !p.IsExpensive() {
		t.Fatal("costly100 must be expensive")
	}
}

func TestRankMetric(t *testing.T) {
	// rank = (sel-1)/cost: cheaper and more selective sorts earlier.
	if Rank(0.5, 10) >= Rank(0.5, 100) {
		t.Fatal("cheaper predicate must have lower (earlier) rank")
	}
	if Rank(0.1, 10) >= Rank(0.9, 10) {
		t.Fatal("more selective predicate must have lower rank")
	}
	if Rank(0.5, 0) >= 0 {
		t.Fatal("free filtering predicate must rank -inf")
	}
	if Rank(1.5, 0) <= 0 {
		t.Fatal("free expanding predicate must rank +inf")
	}
	// Selectivity > 1 (expanding) gives positive rank: apply late.
	if Rank(2, 10) <= 0 {
		t.Fatal("expanding predicate must have positive rank")
	}
}

func TestQueryHelpers(t *testing.T) {
	c := testCatalog(t)
	f, _ := c.Func("costly100")
	q, _ := NewQuery([]string{"r", "s"}, []*Predicate{
		{Kind: KindJoinCmp, Op: expr.OpEQ, Left: ColRef{"r", "a1"}, Right: ColRef{"s", "a1"}},
		{Kind: KindSelCmp, Op: expr.OpEQ, Left: ColRef{"s", "u20"}, Value: expr.I(3)},
		{Kind: KindFunc, Func: f, Args: []ColRef{{"r", "u20"}}},
	})
	Analyze(c, q)
	if got := q.SelectionsOn("s"); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("SelectionsOn(s) = %v", got)
	}
	if got := q.SelectionsOn("r"); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("SelectionsOn(r) = %v", got)
	}
	if got := q.JoinPreds(); len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("JoinPreds = %v", got)
	}
	if !q.HasExpensivePreds() {
		t.Fatal("query has costly100")
	}
	if !q.Preds[0].CoveredBy(map[string]bool{"r": true, "s": true}) {
		t.Fatal("CoveredBy full set")
	}
	if q.Preds[0].CoveredBy(map[string]bool{"r": true}) {
		t.Fatal("CoveredBy partial set should be false")
	}
}

func TestPredicateString(t *testing.T) {
	f := expr.NewCostly("costly10", 2, 10, 0.5, 1)
	p := &Predicate{Kind: KindFunc, Func: f, Args: []ColRef{{"r", "x"}, {"s", "y"}}}
	if got := p.String(); got != "costly10(r.x, s.y)" {
		t.Fatalf("String = %q", got)
	}
	p2 := &Predicate{Kind: KindJoinCmp, Op: expr.OpEQ, Left: ColRef{"r", "a"}, Right: ColRef{"s", "b"}}
	if got := p2.String(); got != "r.a = s.b" {
		t.Fatalf("String = %q", got)
	}
	p3 := &Predicate{Kind: KindSelCmp, Op: expr.OpLT, Left: ColRef{"r", "a"}, Value: expr.I(5)}
	if got := p3.String(); got != "r.a < 5" {
		t.Fatalf("String = %q", got)
	}
}

func TestAnalyzeNotEqualAndFallbacks(t *testing.T) {
	c := testCatalog(t)
	q, _ := NewQuery([]string{"s"}, []*Predicate{
		{Kind: KindSelCmp, Op: expr.OpNE, Left: ColRef{"s", "u20"}, Value: expr.I(3)},
	})
	if err := Analyze(c, q); err != nil {
		t.Fatal(err)
	}
	if s := q.Preds[0].Selectivity; math.Abs(s-(1-1.0/500)) > 1e-12 {
		t.Fatalf("NE selectivity = %v", s)
	}

	// Unknown-statistics fallbacks.
	c2 := catalog.New()
	c2.AddTable(&catalog.Table{Name: "x", Columns: []catalog.Column{
		{Name: "c", Type: expr.TInt}, // Distinct 0, Min == Max
	}, Card: 100})
	mk := func(op expr.CmpOp) float64 {
		q, _ := NewQuery([]string{"x"}, []*Predicate{
			{Kind: KindSelCmp, Op: op, Left: ColRef{"x", "c"}, Value: expr.I(1)},
		})
		if err := Analyze(c2, q); err != nil {
			t.Fatal(err)
		}
		return q.Preds[0].Selectivity
	}
	if mk(expr.OpEQ) != 0.1 {
		t.Fatalf("EQ fallback = %v", mk(expr.OpEQ))
	}
	if mk(expr.OpNE) != 0.9 {
		t.Fatalf("NE fallback = %v", mk(expr.OpNE))
	}
	if mk(expr.OpLT) != 1.0/3.0 {
		t.Fatalf("range fallback = %v", mk(expr.OpLT))
	}
}

func TestAnalyzeJoinFallbacks(t *testing.T) {
	c2 := catalog.New()
	for _, n := range []string{"x", "y"} {
		c2.AddTable(&catalog.Table{Name: n, Columns: []catalog.Column{
			{Name: "c", Type: expr.TInt},
		}, Card: 100})
	}
	q, _ := NewQuery([]string{"x", "y"}, []*Predicate{
		{Kind: KindJoinCmp, Op: expr.OpEQ, Left: ColRef{"x", "c"}, Right: ColRef{"y", "c"}},
		{Kind: KindJoinCmp, Op: expr.OpLT, Left: ColRef{"x", "c"}, Right: ColRef{"y", "c"}},
	})
	if err := Analyze(c2, q); err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Selectivity != 0.01 {
		t.Fatalf("equijoin fallback = %v", q.Preds[0].Selectivity)
	}
	if q.Preds[1].Selectivity != 1.0/3.0 {
		t.Fatalf("inequality join = %v", q.Preds[1].Selectivity)
	}
}

func TestPredicateRankMethod(t *testing.T) {
	p := &Predicate{Selectivity: 0.5, CostPerTuple: 10}
	if p.Rank() != Rank(0.5, 10) {
		t.Fatal("Predicate.Rank disagrees with Rank")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	c := testCatalog(t)
	q := &Query{Tables: []string{"r"}, Preds: []*Predicate{
		{Kind: KindSelCmp, Op: expr.OpEQ, Left: ColRef{"zzz", "a"}, Value: expr.I(1), Tables: []string{"zzz"}},
	}}
	if err := Analyze(c, q); err == nil {
		t.Fatal("missing table should error")
	}
	q2 := &Query{Tables: []string{"r"}, Preds: []*Predicate{
		{Kind: KindFunc, Tables: []string{"r"}}, // nil Func
	}}
	if err := Analyze(c, q2); err == nil {
		t.Fatal("nil function should error")
	}
	q3 := &Query{Tables: []string{"r"}, Preds: []*Predicate{
		{Kind: KindSelCmp, Op: expr.OpEQ, Left: ColRef{"r", "nocol"}, Value: expr.I(1), Tables: []string{"r"}},
	}}
	if err := Analyze(c, q3); err == nil {
		t.Fatal("missing column should error")
	}
}

func TestHistogramSelectivityUsed(t *testing.T) {
	c := testCatalog(t)
	tab, _ := c.Table("s")
	// Install a skewed histogram on u20 and check the estimate follows it.
	values := make([]int64, 0, 1000)
	for i := 0; i < 900; i++ {
		values = append(values, int64(i%5))
	}
	for i := 0; i < 100; i++ {
		values = append(values, int64(5+i*4))
	}
	ci := tab.ColIndex("u20")
	tab.Columns[ci].Hist = catalog.BuildHistogram(values, 16)
	tab.Columns[ci].Min, tab.Columns[ci].Max = 0, 401

	q, _ := NewQuery([]string{"s"}, []*Predicate{
		{Kind: KindSelCmp, Op: expr.OpLT, Left: ColRef{"s", "u20"}, Value: expr.I(5)},
	})
	if err := Analyze(c, q); err != nil {
		t.Fatal(err)
	}
	if s := q.Preds[0].Selectivity; math.Abs(s-0.9) > 0.05 {
		t.Fatalf("histogram not used: selectivity = %v, want ~0.9", s)
	}
	tab.Columns[ci].Hist = nil
}

// TestJoinKeyClasses: transitive closure over equality joins only, classes of
// one table dropped, members and classes in table.col order whatever the
// order of the predicates.
func TestJoinKeyClasses(t *testing.T) {
	eq := func(op expr.CmpOp, l, r ColRef) *Predicate {
		p := &Predicate{Kind: KindJoinCmp, Op: op, Left: l, Right: r}
		p.Tables = referencedTables(p)
		return p
	}
	preds := []*Predicate{
		eq(expr.OpEQ, ColRef{"t3", "x"}, ColRef{"t10", "x"}),
		eq(expr.OpEQ, ColRef{"t2", "k"}, ColRef{"t1", "k"}),
		eq(expr.OpLT, ColRef{"t2", "k"}, ColRef{"t3", "x"}), // not an equality
		eq(expr.OpEQ, ColRef{"t9", "a"}, ColRef{"t9", "b"}), // one table
		eq(expr.OpEQ, ColRef{"t1", "k"}, ColRef{"t4", "k"}),
	}
	want := [][]ColRef{{{"t1", "k"}, {"t2", "k"}, {"t4", "k"}}, {{"t10", "x"}, {"t3", "x"}}}
	for i := 0; i < 2; i++ {
		if got := JoinKeyClasses(preds); !reflect.DeepEqual(got, want) {
			t.Fatalf("classes = %v, want %v", got, want)
		}
		slices.Reverse(preds)
	}
}
