package exec

import (
	"sort"
	"strings"
	"testing"

	"predplace/internal/catalog"
	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

// newEnv builds a small benchmark database and an Env over it.
func newEnv(t testing.TB, tables []int, caching bool) (*datagen.DB, *Env) {
	t.Helper()
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	return db, &Env{
		Cat:   db.Cat,
		Pool:  db.Pool,
		Cache: pcache.NewManager(caching, 0),
	}
}

func scanNode(t testing.TB, cat *catalog.Catalog, table string) *plan.SeqScan {
	t.Helper()
	tab, err := cat.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]query.ColRef, len(tab.Columns))
	for i, c := range tab.Columns {
		cols[i] = query.ColRef{Table: table, Col: c.Name}
	}
	return &plan.SeqScan{Table: table, ColRefs: cols}
}

// naiveRows loads a whole table as rows (reference evaluator input).
func naiveRows(t *testing.T, cat *catalog.Catalog, table string) []expr.Row {
	t.Helper()
	tab, _ := cat.Table(table)
	var out []expr.Row
	it := tab.Heap.Scan()
	defer it.Close()
	for {
		rec, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		row, err := tab.Codec.Decode(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, row)
	}
}

// rowKey canonicalizes a row for set comparison.
func rowKey(r expr.Row) string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.String())
		b.WriteByte('|')
	}
	return b.String()
}

func sameRowMultiset(t *testing.T, got, want []expr.Row) {
	t.Helper()
	g := make([]string, len(got))
	w := make([]string, len(want))
	for i, r := range got {
		g[i] = rowKey(r)
	}
	for i, r := range want {
		w[i] = rowKey(r)
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("row count: got %d want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("row multiset mismatch at %d:\n got %s\nwant %s", i, g[i], w[i])
		}
	}
}

func TestSeqScanAllRows(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	res, err := Run(env, scanNode(t, db.Cat, "t1"))
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Cat.Table("t1")
	if res.Stats.Rows != int(tab.Card) {
		t.Fatalf("rows = %d, want %d", res.Stats.Rows, tab.Card)
	}
	if res.Stats.IO.Total() == 0 {
		t.Fatal("scan should cost I/O")
	}
}

func TestIndexScanEquality(t *testing.T) {
	db, env := newEnv(t, []int{2}, false)
	v := expr.I(3)
	node := &plan.IndexScan{
		Table: "t2", Col: "a10", Eq: &v,
		ColRefs: scanNode(t, db.Cat, "t2").ColRefs,
	}
	res, err := Run(env, node)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows != 10 {
		t.Fatalf("rows = %d, want 10 (dup factor)", res.Stats.Rows)
	}
	tab, _ := db.Cat.Table("t2")
	idx := tab.ColIndex("a10")
	for _, r := range res.Rows {
		if r[idx].I != 3 {
			t.Fatalf("row with a10=%d leaked through index scan", r[idx].I)
		}
	}
}

func TestIndexScanRange(t *testing.T) {
	db, env := newEnv(t, []int{2}, false)
	lo, hi := expr.I(10), expr.I(19)
	node := &plan.IndexScan{
		Table: "t2", Col: "a1", Lo: &lo, Hi: &hi,
		ColRefs: scanNode(t, db.Cat, "t2").ColRefs,
	}
	res, err := Run(env, node)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows != 10 {
		t.Fatalf("rows = %d, want 10", res.Stats.Rows)
	}
}

func TestFilterCheapPredicate(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	scan := scanNode(t, db.Cat, "t1")
	q, err := query.NewQuery([]string{"t1"}, []*query.Predicate{{
		Kind: query.KindSelCmp, Op: expr.OpLT,
		Left: query.ColRef{Table: "t1", Col: "ua1"}, Value: expr.I(50),
	}})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(db.Cat, q)
	res, err := Run(env, &plan.Filter{Input: scan, Pred: q.Preds[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows != 50 {
		t.Fatalf("rows = %d, want 50", res.Stats.Rows)
	}
	if res.Stats.FuncCharge != 0 {
		t.Fatal("cheap predicate should not charge function cost")
	}
}

func TestFilterCountsInvocations(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	f, _ := db.Cat.Func("costly10")
	q, _ := query.NewQuery([]string{"t1"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t1", Col: "u10"}},
	}})
	query.Analyze(db.Cat, q)
	res, err := Run(env, &plan.Filter{Input: scanNode(t, db.Cat, "t1"), Pred: q.Preds[0]})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Cat.Table("t1")
	if res.Stats.Invocations["costly10"] != tab.Card {
		t.Fatalf("invocations = %d, want %d", res.Stats.Invocations["costly10"], tab.Card)
	}
	if res.Stats.FuncCharge != float64(tab.Card)*10 {
		t.Fatalf("charge = %v", res.Stats.FuncCharge)
	}
}

func TestFilterCachingReducesInvocations(t *testing.T) {
	db, env := newEnv(t, []int{1}, true)
	f, _ := db.Cat.Func("costly10")
	q, _ := query.NewQuery([]string{"t1"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t1", Col: "u10"}},
	}})
	query.Analyze(db.Cat, q)
	res, err := Run(env, &plan.Filter{Input: scanNode(t, db.Cat, "t1"), Pred: q.Preds[0]})
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Cat.Table("t1")
	distinct := tab.Card / 10
	if res.Stats.Invocations["costly10"] != distinct {
		t.Fatalf("cached invocations = %d, want %d (distinct values)",
			res.Stats.Invocations["costly10"], distinct)
	}
	if res.Stats.CacheHits != tab.Card-distinct {
		t.Fatalf("cache hits = %d, want %d", res.Stats.CacheHits, tab.Card-distinct)
	}
}

// joinOfMethod builds t1 ⋈ t3 on ua1 with the given method and checks the
// result against the naive reference join.
func testJoinMethod(t *testing.T, method plan.JoinMethod, indexCol string) {
	db, env := newEnv(t, []int{1, 3}, false)
	joinCol := "ua1"
	if indexCol != "" {
		joinCol = indexCol
	}
	q, _ := query.NewQuery([]string{"t1", "t3"}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: "t1", Col: joinCol}, Right: query.ColRef{Table: "t3", Col: joinCol},
	}})
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	inner := scanNode(t, db.Cat, "t3")
	j := &plan.Join{
		Method: method, Outer: outer, Inner: inner, Primary: q.Preds[0],
		InnerIndexCol: indexCol,
		SortOuter:     true, SortInner: true,
	}
	j.ColRefs = plan.ConcatCols(outer, inner)
	res, err := Run(env, j)
	if err != nil {
		t.Fatal(err)
	}

	// Reference nested-loop join in pure Go.
	r1 := naiveRows(t, db.Cat, "t1")
	r3 := naiveRows(t, db.Cat, "t3")
	t1tab, _ := db.Cat.Table("t1")
	t3tab, _ := db.Cat.Table("t3")
	i1, i3 := t1tab.ColIndex(joinCol), t3tab.ColIndex(joinCol)
	var want []expr.Row
	for _, a := range r1 {
		for _, b := range r3 {
			if !a[i1].IsNull() && a[i1].Equal(b[i3]) {
				want = append(want, append(a.Clone(), b...))
			}
		}
	}
	sameRowMultiset(t, res.Rows, want)
}

func TestHashJoinMatchesReference(t *testing.T)  { testJoinMethod(t, plan.HashJoin, "") }
func TestMergeJoinMatchesReference(t *testing.T) { testJoinMethod(t, plan.MergeJoin, "") }
func TestNLJoinMatchesReference(t *testing.T)    { testJoinMethod(t, plan.NestLoop, "") }
func TestIndexNLJoinMatchesReference(t *testing.T) {
	testJoinMethod(t, plan.IndexNestLoop, "a1")
}

func TestJoinMethodsAgree(t *testing.T) {
	// All four methods must return identical multisets on a duplicating join.
	db, env := newEnv(t, []int{1, 2}, false)
	q, _ := query.NewQuery([]string{"t1", "t2"}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: "t1", Col: "a10"}, Right: query.ColRef{Table: "t2", Col: "a10"},
	}})
	query.Analyze(db.Cat, q)
	var ref []expr.Row
	for i, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NestLoop, plan.IndexNestLoop} {
		outer := scanNode(t, db.Cat, "t1")
		inner := scanNode(t, db.Cat, "t2")
		j := &plan.Join{
			Method: m, Outer: outer, Inner: inner, Primary: q.Preds[0],
			SortOuter: true, SortInner: true,
		}
		if m == plan.IndexNestLoop {
			j.InnerIndexCol = "a10"
		}
		j.ColRefs = plan.ConcatCols(outer, inner)
		res, err := Run(env, j)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if i == 0 {
			ref = res.Rows
			if len(ref) == 0 {
				t.Fatal("join should produce rows")
			}
			continue
		}
		sameRowMultiset(t, res.Rows, ref)
	}
}

func TestIndexNLJoinAppliesInnerResidualFilters(t *testing.T) {
	db, env := newEnv(t, []int{1, 3}, false)
	q, _ := query.NewQuery([]string{"t1", "t3"}, []*query.Predicate{
		{Kind: query.KindJoinCmp, Op: expr.OpEQ,
			Left: query.ColRef{Table: "t1", Col: "a1"}, Right: query.ColRef{Table: "t3", Col: "a1"}},
		{Kind: query.KindSelCmp, Op: expr.OpLT,
			Left: query.ColRef{Table: "t3", Col: "u10"}, Value: expr.I(5)},
	})
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	innerScan := scanNode(t, db.Cat, "t3")
	inner := &plan.Filter{Input: innerScan, Pred: q.Preds[1]}
	j := &plan.Join{Method: plan.IndexNestLoop, Outer: outer, Inner: inner,
		Primary: q.Preds[0], InnerIndexCol: "a1"}
	j.ColRefs = plan.ConcatCols(outer, inner)
	res, err := Run(env, j)
	if err != nil {
		t.Fatal(err)
	}
	t3tab, _ := db.Cat.Table("t3")
	u10 := t3tab.ColIndex("u10") + len(outer.ColRefs)
	for _, r := range res.Rows {
		if r[u10].I >= 5 {
			t.Fatalf("residual filter not applied: u10=%d", r[u10].I)
		}
	}
	if res.Stats.Rows == 0 {
		t.Fatal("expected some matches")
	}
}

func TestNLJoinExpensivePrimary(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	// Self-ish join: t1 × t1 with expensive primary? Use two tables instead.
	db2, env2 := newEnv(t, []int{1, 2}, false)
	_ = db
	_ = env
	f, _ := db2.Cat.Func("costly10join")
	q, _ := query.NewQuery([]string{"t1", "t2"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f,
		Args: []query.ColRef{{Table: "t1", Col: "u10"}, {Table: "t2", Col: "u10"}},
	}})
	query.Analyze(db2.Cat, q)
	outer := scanNode(t, db2.Cat, "t1")
	inner := scanNode(t, db2.Cat, "t2")
	j := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner,
		Primary: q.Preds[0], ExpensivePrimary: true}
	j.ColRefs = plan.ConcatCols(outer, inner)
	res, err := Run(env2, j)
	if err != nil {
		t.Fatal(err)
	}
	t1tab, _ := db2.Cat.Table("t1")
	t2tab, _ := db2.Cat.Table("t2")
	pairs := t1tab.Card * t2tab.Card
	if res.Stats.Invocations["costly10join"] != pairs {
		t.Fatalf("invocations = %d, want %d (all pairs)", res.Stats.Invocations["costly10join"], pairs)
	}
}

func TestBudgetAbortsAsDNF(t *testing.T) {
	db, env := newEnv(t, []int{1, 2}, false)
	f, _ := db.Cat.Func("costly100")
	q, _ := query.NewQuery([]string{"t1"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t1", Col: "ua1"}},
	}})
	query.Analyze(db.Cat, q)
	env.Budget = 500 // 200 tuples × 100 I/Os would be 20000
	res, err := Run(env, &plan.Filter{Input: scanNode(t, db.Cat, "t1"), Pred: q.Preds[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DNF {
		t.Fatal("expected DNF on budget overrun")
	}
	// DESIGN.md §13: the call that crosses the budget is the last one.
	if res.Stats.Charged() > env.Budget+f.Cost {
		t.Fatalf("abort came too late: %v charged, more than one call past %v", res.Stats.Charged(), env.Budget)
	}
}

func TestCountOnlyDiscardsRows(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	env.CountOnly = true
	res, err := Run(env, scanNode(t, db.Cat, "t1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil {
		t.Fatal("CountOnly should discard rows")
	}
	if res.Stats.Rows == 0 {
		t.Fatal("count should still be reported")
	}
}

func TestNullJoinKeysNeverMatch(t *testing.T) {
	// Build a tiny custom table with NULL keys.
	db, env := newEnv(t, []int{1}, false)
	_ = env
	cols := []catalog.Column{{Name: "k", Type: expr.TInt, Distinct: 2, Min: 0, Max: 1}}
	codec, _ := catalog.NewRowCodec(cols)
	tab := &catalog.Table{Name: "nulls", Columns: cols, Codec: codec, TupleBytes: codec.Width()}
	tab.Heap = storage.NewHeapFile(db.Pool)
	for _, v := range []expr.Value{expr.I(0), expr.Null, expr.I(1)} {
		rec, _ := codec.Encode(expr.Row{v})
		tab.Heap.Insert(rec)
	}
	tab.Card = 3
	db.Cat.AddTable(tab)

	q, _ := query.NewQuery([]string{"nulls", "t1"}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: "nulls", Col: "k"}, Right: query.ColRef{Table: "t1", Col: "ua1"},
	}})
	query.Analyze(db.Cat, q)
	outer := &plan.SeqScan{Table: "nulls", ColRefs: []query.ColRef{{Table: "nulls", Col: "k"}}}
	inner := scanNode(t, db.Cat, "t1")
	for _, m := range []plan.JoinMethod{plan.HashJoin, plan.MergeJoin, plan.NestLoop} {
		j := &plan.Join{Method: m, Outer: outer, Inner: inner, Primary: q.Preds[0],
			SortOuter: true, SortInner: true}
		j.ColRefs = plan.ConcatCols(outer, inner)
		env2 := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0)}
		res, err := Run(env2, j)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Stats.Rows != 2 {
			t.Fatalf("%v: rows = %d, want 2 (NULL key must not match)", m, res.Stats.Rows)
		}
	}
}
