package optimizer

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"predplace/internal/catalog"
	"predplace/internal/cost"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// TestCorpusPlansCarryFullAnnotations is the stale-annotation property: the
// DP prices candidates over a frontier of already-priced subplans and fills
// join column lists only on the plan it returns, so whatever Plan hands back
// must be indistinguishable from a tree annotated from scratch. For every
// corpus entry a full Model.Annotate leaves every node's estimates
// bit-identical, plan.Validate passes (column lists on every join, TopK/Limit
// roots and the LDL family included), and the query's predicates carry their
// nominal estimates (Robust perturbs the shared predicates while it plans).
func TestCorpusPlansCarryFullAnnotations(t *testing.T) {
	db := corpusDB(t)
	type est struct{ card, cost uint64 }
	estimates := func(root plan.Node) []est {
		var out []est
		plan.Walk(root, func(n plan.Node) {
			out = append(out, est{math.Float64bits(n.Card()), math.Float64bits(n.Cost())})
		})
		return out
	}
	forEachCorpusEntry(t, func(e corpusEntry) {
		if e.err != nil {
			t.Errorf("%s: Plan: %v", e.name, e.err)
			return
		}
		before := estimates(e.root)
		if err := e.opt.Model().Annotate(e.root); err != nil {
			t.Fatalf("%s: Annotate: %v", e.name, err)
		}
		for i, after := range estimates(e.root) {
			if after != before[i] {
				t.Errorf("%s: node %d (pre-order) left the planner with card=%x cost=%x, a full Annotate gives card=%x cost=%x\n%s",
					e.name, i, math.Float64frombits(before[i].card), math.Float64frombits(before[i].cost),
					math.Float64frombits(after.card), math.Float64frombits(after.cost), plan.Render(e.root))
				break
			}
		}
		if err := plan.Validate(e.root); err != nil {
			t.Errorf("%s: %v", e.name, err)
		}
		nominal, _ := bindCorpus(t, db, e.sql)
		if err := query.Analyze(db.Cat, nominal); err != nil {
			t.Fatal(err)
		}
		for i, p := range e.q.Preds {
			if want := nominal.Preds[i]; math.Float64bits(p.Selectivity) != math.Float64bits(want.Selectivity) ||
				math.Float64bits(p.CostPerTuple) != math.Float64bits(want.CostPerTuple) {
				t.Errorf("%s: predicate %s left with sel=%v cost=%v, nominal sel=%v cost=%v",
					e.name, p, p.Selectivity, p.CostPerTuple, want.Selectivity, want.CostPerTuple)
			}
		}
	})
}

// wideCatalog is a synthetic schema of n one-column tables w0 … w(n-1) plus a
// function whose declared selectivity exceeds 1 — something every Robust
// perturbation clamps, so a perturbation that is not undone shows.
func wideCatalog(t *testing.T, n int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for i := 0; i < n; i++ {
		err := cat.AddTable(&catalog.Table{
			Name:    fmt.Sprintf("w%d", i),
			Columns: []catalog.Column{{Name: "k", Type: expr.TInt, Distinct: 100, Max: 99}},
			Card:    100, TupleBytes: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.RegisterFunc(&expr.FuncDef{Name: "dup", Arity: 1, Cost: 5, Selectivity: 1.25}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestRobustRestoresEstimatesOnError covers the error return: a 13-way join
// fails inside Robust's first enumeration, after the predicates were
// perturbed.
func TestRobustRestoresEstimatesOnError(t *testing.T) {
	cat := wideCatalog(t, 13)
	dup, err := cat.Func("dup")
	if err != nil {
		t.Fatal(err)
	}
	var tables []string
	preds := []*query.Predicate{{Kind: query.KindFunc, Func: dup, Args: []query.ColRef{{Table: "w0", Col: "k"}}}}
	for i := 0; i < 13; i++ {
		tables = append(tables, fmt.Sprintf("w%d", i))
		if i > 0 {
			preds = append(preds, jp(tables[i-1], "k", tables[i], "k"))
		}
	}
	q, err := query.NewQuery(tables, preds)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := New(cat, Options{Algorithm: Robust}).Plan(q); err == nil {
		t.Fatal("a 13-way join planned; the test needs Robust to fail after perturbing")
	}
	if got := preds[0].Selectivity; math.Float64bits(got) != math.Float64bits(1.25) {
		t.Fatalf("dup's selectivity is %v after the failed planning, want the nominal 1.25", got)
	}
}

// lateExpensiveQuery is Query 4's shape (where Migration retains unpruneable
// subplans) with two expensive selections declared either before or after 70
// cheap ones, i.e. with predicate IDs 0 and 1, or 72 and 73.
func lateExpensiveQuery(t *testing.T, expensiveFirst bool) *query.Query {
	db := corpusDB(t)
	exp := []*query.Predicate{
		fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u20"}),
		fp(t, db, "costly10", query.ColRef{Table: "t10", Col: "u10"}),
	}
	preds := []*query.Predicate{jp("t3", "ua1", "t10", "ua1"), jp("t10", "ua1", "t1", "ua1")}
	for i := 0; i < 70; i++ {
		preds = append(preds, cp([]string{"t3", "t10", "t1"}[i%3], "u100", expr.OpGE, 0))
	}
	if expensiveFirst {
		preds = append(exp, preds...)
	} else {
		preds = append(preds, exp...)
	}
	return mkQuery(t, db, []string{"t3", "t10", "t1"}, preds)
}

// TestBuriedBitsetBeyond64Predicates: an expensive predicate declared after
// 64 others used to shift its bit out of the 64-bit buried set, so its
// subplans were never unpruneable and Migration silently lost §4.4's
// retention for it.
func TestBuriedBitsetBeyond64Predicates(t *testing.T) {
	db := corpusDB(t)
	plan := func(expensiveFirst bool) *Info {
		q := lateExpensiveQuery(t, expensiveFirst)
		if id := q.Preds[len(q.Preds)-1].ID; !expensiveFirst && id < 64 {
			t.Fatalf("last predicate has ID %d; the test needs expensive IDs beyond 63", id)
		}
		_, info := planWith(t, db, Migration, q)
		return info
	}
	first, late := plan(true), plan(false)
	if first.UnpruneableRetained == 0 {
		t.Fatal("the query retains no unpruneable subplan even with the expensive predicates declared first; pick another shape")
	}
	if late.UnpruneableRetained != first.UnpruneableRetained || late.PlansRetained != first.PlansRetained {
		t.Errorf("expensive predicates declared last: %d plans retained, %d unpruneable; declared first: %d and %d",
			late.PlansRetained, late.UnpruneableRetained, first.PlansRetained, first.UnpruneableRetained)
	}
	if !cost.ApproxEq(late.EstCost, first.EstCost) {
		t.Errorf("estimated cost %v with the expensive predicates declared last, %v declared first", late.EstCost, first.EstCost)
	}
}

func TestTooManyExpensivePredicates(t *testing.T) {
	db := corpusDB(t)
	var preds []*query.Predicate
	for i := 0; i < 65; i++ {
		preds = append(preds, fp(t, db, "costly1", query.ColRef{Table: "t1", Col: "u10"}))
	}
	q := mkQuery(t, db, []string{"t1"}, preds)
	_, _, err := New(db.Cat, Options{Algorithm: Migration}).Plan(q)
	var tooMany *TooManyExpensiveError
	if !errors.As(err, &tooMany) || tooMany.Count != 65 {
		t.Fatalf("Plan with 65 expensive predicates returned %v, want a *TooManyExpensiveError counting 65", err)
	}
}

// TestSignatureKeepsWideIDsApart: cycle detection compares placement
// signatures, which used to keep one byte per predicate ID.
func TestSignatureKeepsWideIDsApart(t *testing.T) {
	sig := func(base, after []int) string {
		f := &FlatPlan{Steps: []*FlatStep{{}}}
		for _, id := range base {
			f.BaseFilters = append(f.BaseFilters, &query.Predicate{ID: id})
		}
		for _, id := range after {
			f.Steps[0].AfterFilters = append(f.Steps[0].AfterFilters, &query.Predicate{ID: id})
		}
		return string(f.appendSignature(nil))
	}
	if sig([]int{5}, nil) == sig([]int{261}, nil) {
		t.Error("predicate IDs 5 and 261 share a signature")
	}
	if sig([]int{124}, nil) == sig(nil, []int{124}) {
		t.Error("a predicate below the join and the same predicate above it share a signature")
	}
}
