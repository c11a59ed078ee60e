package optimizer

import (
	"math"
	"strings"
	"testing"

	"predplace/internal/cost"
	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

func benchDB(t *testing.T, tables ...int) *datagen.DB {
	t.Helper()
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// mkQuery builds and analyzes a query.
func mkQuery(t *testing.T, db *datagen.DB, tables []string, preds []*query.Predicate) *query.Query {
	t.Helper()
	q, err := query.NewQuery(tables, preds)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Analyze(db.Cat, q); err != nil {
		t.Fatal(err)
	}
	return q
}

func jp(lt, lc, rt, rc string) *query.Predicate {
	return &query.Predicate{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: lt, Col: lc}, Right: query.ColRef{Table: rt, Col: rc},
	}
}

func fp(t *testing.T, db *datagen.DB, fn string, refs ...query.ColRef) *query.Predicate {
	t.Helper()
	f, err := db.Cat.Func(fn)
	if err != nil {
		t.Fatal(err)
	}
	return &query.Predicate{Kind: query.KindFunc, Func: f, Args: refs}
}

func cp(tb, col string, op expr.CmpOp, v int64) *query.Predicate {
	return &query.Predicate{
		Kind: query.KindSelCmp, Op: op,
		Left: query.ColRef{Table: tb, Col: col}, Value: expr.I(v),
	}
}

func planWith(t *testing.T, db *datagen.DB, algo Algorithm, q *query.Query) (plan.Node, *Info) {
	t.Helper()
	opt := New(db.Cat, Options{Algorithm: algo})
	root, info, err := opt.Plan(q)
	if err != nil {
		t.Fatalf("%v: %v", algo, err)
	}
	return root, info
}

func TestFlattenRoundTrip(t *testing.T) {
	db := benchDB(t, 1, 3, 10)
	q := mkQuery(t, db, []string{"t1", "t3", "t10"}, []*query.Predicate{
		jp("t1", "ua1", "t3", "ua1"),
		jp("t3", "ua1", "t10", "ua1"),
		fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u20"}),
	})
	root, _ := planWith(t, db, PushDown, q)
	f, err := Flatten(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(f.Steps))
	}
	rebuilt := f.Tree()
	m := cost.NewModel(db.Cat, false)
	if err := m.Annotate(rebuilt); err != nil {
		t.Fatal(err)
	}
	if math.Abs(rebuilt.Cost()-root.Cost()) > 1e-6*(1+root.Cost()) {
		t.Fatalf("round-trip changed cost: %v vs %v", rebuilt.Cost(), root.Cost())
	}
	// Same rendered structure.
	if plan.Render(rebuilt) != plan.Render(root) {
		t.Fatalf("round-trip changed structure:\n%s\nvs\n%s", plan.Render(rebuilt), plan.Render(root))
	}
}

func TestFlattenRejectsBushy(t *testing.T) {
	db := benchDB(t, 1, 3)
	q := mkQuery(t, db, []string{"t1", "t3"}, []*query.Predicate{jp("t1", "ua1", "t3", "ua1")})
	left, _ := planWith(t, db, PushDown, q)
	lj, ok := left.(*plan.Join)
	if !ok {
		// plan may have filters on top; strip
		_, base := plan.TopFilters(left)
		lj = base.(*plan.Join)
	}
	bushy := &plan.Join{Method: plan.HashJoin, Outer: lj, Inner: lj, Primary: q.Preds[0]}
	if _, err := Flatten(bushy); err == nil {
		t.Fatal("bushy plan should not flatten")
	}
}

func TestHomeStep(t *testing.T) {
	db := benchDB(t, 1, 3, 10)
	sel := fp(t, db, "costly100", query.ColRef{Table: "t3", Col: "u20"})
	q := mkQuery(t, db, []string{"t1", "t3", "t10"}, []*query.Predicate{
		jp("t1", "ua1", "t3", "ua1"),
		jp("t3", "ua1", "t10", "ua1"),
		sel,
	})
	root, _ := planWith(t, db, PushDown, q)
	f, err := Flatten(root)
	if err != nil {
		t.Fatal(err)
	}
	home, ok := f.homeStep(sel)
	if !ok {
		t.Fatal("homeStep failed")
	}
	if f.BaseTable == "t3" {
		if home != -1 {
			t.Fatalf("home = %d, want -1 (base)", home)
		}
	} else {
		if home < 0 || f.Steps[home].InnerTable != "t3" {
			t.Fatalf("home = %d does not point at t3's step", home)
		}
	}
	bogus := &query.Predicate{Kind: query.KindSelCmp, Left: query.ColRef{Table: "zzz", Col: "x"}, Tables: []string{"zzz"}}
	if _, ok := f.homeStep(bogus); ok {
		t.Fatal("foreign table should not resolve")
	}
}

func TestGroupModulesAscendingInvariant(t *testing.T) {
	cases := [][]cost.Module{
		{{Sel: 0.5, Cost: 1}, {Sel: 0.9, Cost: 1}},                      // already ascending
		{{Sel: 1.0, Cost: 3}, {Sel: 0.1, Cost: 3}},                      // descending: must group
		{{Sel: 0.9, Cost: 1}, {Sel: 0.5, Cost: 1}, {Sel: 0.1, Cost: 1}}, // all descending
		{{Sel: 0.2, Cost: 1}, {Sel: 1.5, Cost: 2}, {Sel: 0.3, Cost: 1}},
	}
	for ci, mods := range cases {
		groups := groupModules(nil, mods, 0)
		for i := 1; i < len(groups); i++ {
			if groups[i-1].mod.Rank() > groups[i].mod.Rank() {
				t.Fatalf("case %d: group ranks not ascending", ci)
			}
		}
		// Steps covered exactly once, in order.
		want := 0
		for _, g := range groups {
			if g.firstStep != want {
				t.Fatalf("case %d: group coverage broken", ci)
			}
			want = g.lastStep + 1
		}
		if want != len(mods) {
			t.Fatalf("case %d: steps uncovered", ci)
		}
	}
}

func TestGroupModulesPaperExample(t *testing.T) {
	// §4.4: J1 (sel 1, cost 3) above J2 (sel 0.1, cost 3): out of rank
	// order, so grouped; group rank = (0.1−1)/(3+3) = −0.15.
	groups := groupModules(nil, []cost.Module{{Sel: 1, Cost: 3}, {Sel: 0.1, Cost: 3}}, 0)
	if len(groups) != 1 {
		t.Fatalf("expected 1 group, got %d", len(groups))
	}
	if math.Abs(groups[0].mod.Rank()-(-0.15)) > 1e-12 {
		t.Fatalf("group rank = %v, want -0.15", groups[0].mod.Rank())
	}
}

func TestRenderShowsExpensiveFilters(t *testing.T) {
	db := benchDB(t, 3, 10)
	q := mkQuery(t, db, []string{"t3", "t10"}, []*query.Predicate{
		jp("t3", "ua1", "t10", "ua1"),
		fp(t, db, "costly100", query.ColRef{Table: "t10", Col: "u20"}),
	})
	root, _ := planWith(t, db, Migration, q)
	out := plan.Render(root)
	if !strings.Contains(out, "Filter*") || !strings.Contains(out, "costly100") {
		t.Fatalf("render missing expensive filter:\n%s", out)
	}
}
