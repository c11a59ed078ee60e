package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"predplace/internal/catalog"
	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/optimizer"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

// poisonOn switches slab poisoning on for one test (it is always on under
// the race detector): every value a pool invalidates is overwritten before
// its slab can be handed out again.
func poisonOn(t *testing.T) {
	old := poisonSlabs
	poisonSlabs = true
	t.Cleanup(func() { poisonSlabs = old })
}

// noPoison fails if any value of rows is the poison sentinel.
func noPoison(t *testing.T, what string, rows []expr.Row) {
	t.Helper()
	for i, r := range rows {
		for j, v := range r {
			if v.Kind == poisonValue.Kind {
				t.Fatalf("%s: row %d column %d is a released slab's value", what, i, j)
			}
		}
	}
}

// equiJoin is outer ⋈ inner on one column of each, by the given method.
func equiJoin(t *testing.T, cat *catalog.Catalog, m plan.JoinMethod, outer, inner plan.Node, l, r query.ColRef) *plan.Join {
	t.Helper()
	return joinOn(t, cat, m, outer, inner, l, expr.OpEQ, r)
}

// joinOn is outer ⋈ inner on l op r, by the given method.
func joinOn(t *testing.T, cat *catalog.Catalog, m plan.JoinMethod, outer, inner plan.Node, l query.ColRef, op expr.CmpOp, r query.ColRef) *plan.Join {
	t.Helper()
	q, err := query.NewQuery([]string{l.Table, r.Table}, []*query.Predicate{
		{Kind: query.KindJoinCmp, Op: op, Left: l, Right: r}})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(cat, q)
	j := &plan.Join{Method: m, Outer: outer, Inner: inner, Primary: q.Preds[0], SortOuter: true, SortInner: true}
	if m == plan.IndexNestLoop {
		j.InnerIndexCol = r.Col
	}
	j.ColRefs = plan.ConcatCols(outer, inner)
	return j
}

// arenaShape is one plan shape of the row-memory and width-schedule
// matrices: a figure query or a statement planned under Migration, or a
// hand-built tree for the placements the planner does not pick at test scale.
type arenaShape struct {
	name string
	db   *datagen.DB
	root func(t *testing.T, caching, transfer bool) plan.Node
	// thin, for a hand-built shape (hand), is what Build must derive for its
	// heap scans serially (thinSummary), and parThin at Parallelism 2 and 4:
	// which decode late and which columns they keep; "" says every scan of
	// the shape decodes whole rows.
	hand          bool
	thin, parThin string
	// absorbs is the cheap filters Build compiles into the hand-built shape's
	// scans as record tests, at every worker count (thinSummary).
	absorbs string
}

// thinSummary renders what Build derives for root's heap scans at the given
// worker count as "table:col,col ..." in table order, and the filters its
// scans absorb as "table:pred;pred ..." (bottom first).
func thinSummary(t *testing.T, cat *catalog.Catalog, root plan.Node, workers int) (thin, absorbs string) {
	t.Helper()
	env := &Env{Cat: cat, Parallelism: workers}
	env.planScans(root)
	var runs []string
	for n, r := range env.runs {
		if n == r.scan {
			var preds []string
			for _, f := range r.filters {
				preds = append(preds, f.Pred.String())
			}
			table, _, _ := plan.BaseTable(n)
			if _, ok := n.(*plan.IndexScan); ok {
				table += "(index)"
			}
			runs = append(runs, table+":"+strings.Join(preds, ";"))
		}
	}
	sort.Strings(runs)
	var out []string
	for scan, th := range env.thin {
		tab, err := env.Cat.Table(scan.Table)
		if err != nil {
			t.Fatal(err)
		}
		var cols []string
		for _, k := range th.need {
			cols = append(cols, tab.Columns[k].Name)
		}
		out = append(out, scan.Table+":"+strings.Join(cols, ","))
	}
	sort.Strings(out)
	return strings.Join(out, " "), strings.Join(runs, " ")
}

// arenaShapes are the figure queries and the plan shapes that decide who
// carves fresh and who must not outlive a pool: a root scan, a root join,
// TopK and Limit roots, a filter at the root over each operator that makes
// rows, an index nested loop at the root, inside a nested-loop inner subtree
// (its pairs die at the parent's rescan) and under a hash-join build — and
// with them who decodes late: one shape per consumer of thin rows (a hash
// join's probe side — in its exchange, and kept serial under a Limit — a
// nested loop's rescanned inner under an expensive filter, an index nested
// loop's outer — serial, as its scan heads an exchange at Parallelism > 1
// unless a nested loop's inner keeps it serial — and the filter chain under
// a root filter) and per consumer that must find whole rows (a root scan, a
// TopK, Limit or sort root, a nested loop's outer, a nested loop's replayed
// inner under an equality and a cheap theta primary, a cross product's
// inner, a hash join's build side, both sides of a merge join) — and which
// cheap filters the scans absorb: thin and whole,
// heap and index scans, at the root and under a hash probe, a hash build and
// an index nested loop's outer.
func arenaShapes(t *testing.T) []arenaShape {
	db := figuresDB(t, 0.02)
	small := figuresDB(t, 0.005) // Query 5's nested loop is quadratic in the scale
	col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
	var shapes []arenaShape
	for _, st := range []struct{ name, sql string }{
		{"query1", sqlQuery1}, {"query2", sqlQuery2}, {"query3", sqlQuery3},
		{"query4", sqlQuery4}, {"query5", sqlQuery5}, {"fig1", sqlFig1},
		{"scan", `SELECT * FROM t6 WHERE t6.ua1 < 700`},
		{"topk-scan", `SELECT * FROM t6 ORDER BY u10 LIMIT 25`},
		{"limit-scan", `SELECT * FROM t6 WHERE costly1(t6.u20) ORDER BY a1 LIMIT 25`},
		{"topk-join", `SELECT * FROM t3, t10 WHERE t3.ua1 = t10.ua1 AND costly1(t10.u20) ORDER BY t10.u10 LIMIT 25`},
	} {
		sdb := db
		if st.name == "query5" {
			sdb = small
		}
		shapes = append(shapes, arenaShape{name: st.name, db: sdb, root: func(t *testing.T, caching, transfer bool) plan.Node {
			return planSQL(t, sdb.Cat, st.sql, optimizer.Options{
				Algorithm: optimizer.Migration, Caching: caching, Transfer: transfer})
		}})
	}
	scan := func(tab string) plan.Node { return scanNode(t, db.Cat, tab) }
	indexNL := func() *plan.Join {
		return equiJoin(t, db.Cat, plan.IndexNestLoop, scan("t1"), scan("t3"), col("t1", "a1"), col("t3", "a1"))
	}
	few := &plan.Filter{Input: scan("t2"), Pred: &query.Predicate{
		Kind: query.KindSelCmp, Op: expr.OpLT, Left: col("t2", "ua1"), Value: expr.I(12)}}
	handP := func(name string, root plan.Node, thin, parThin, absorbs string) {
		shapes = append(shapes, arenaShape{name, db, func(*testing.T, bool, bool) plan.Node { return root }, true, thin, parThin, absorbs})
	}
	hand := func(name string, root plan.Node, thin, absorbs string) { handP(name, root, thin, thin, absorbs) }
	// The root shapes of the result-row rule: who reads the query's pool and
	// copies out what it keeps (a filter, a bounded TopK), who hands fresh
	// slabs down (a Limit, the sort), at every operator that can be below.
	lt := func(c query.ColRef, v int64) *query.Predicate {
		return &query.Predicate{Kind: query.KindSelCmp, Op: expr.OpLT, Left: c, Value: expr.I(v)}
	}
	costly1, err := db.Cat.Func("costly1")
	if err != nil {
		t.Fatal(err)
	}
	udf := func(c query.ColRef) *query.Predicate {
		return &query.Predicate{Kind: query.KindFunc, Func: costly1, Args: []query.ColRef{c}}
	}
	over := func(in plan.Node, p *query.Predicate) *plan.Filter { return &plan.Filter{Input: in, Pred: p} }
	t6 := func() plan.Node { return over(scan("t6"), lt(col("t6", "ua1"), 700)) }
	hand("root-scan", scan("t6"), "", "")
	hand("filter-scan", over(scan("t6"), udf(col("t6", "u20"))), "t6:u20", "")
	// The scan tests the cheap filter on the record and decodes only what the
	// costly one above it reads.
	hand("filter-filter-scan", over(over(scan("t6"), lt(col("t6", "ua1"), 5000)), udf(col("t6", "u20"))), "t6:u20", "t6:t6.ua1 < 5000")
	hi := expr.I(40)
	ix := func() plan.Node { return &plan.IndexScan{Table: "t6", Col: "a10", Hi: &hi, ColRefs: scan("t6").Cols()} }
	hand("filter-filter-indexscan", over(over(ix(), lt(col("t6", "ua1"), 5000)), udf(col("t6", "u20"))), "", "t6(index):t6.ua1 < 5000")
	// A run of cheap filters at the root: the scan makes the result rows,
	// whole, from the records every test keeps — a heap scan and an index scan.
	hand("absorbed-root", over(over(scan("t6"), lt(col("t6", "ua1"), 5000)), lt(col("t6", "u10"), 5)), "", "t6:t6.ua1 < 5000;t6.u10 < 5")
	hand("absorbed-root-indexscan", over(ix(), lt(col("t6", "ua1"), 5000)), "", "t6(index):t6.ua1 < 5000")
	for _, m := range []struct {
		method plan.JoinMethod
		thin   string
	}{{plan.HashJoin, "t2:a1"}, {plan.MergeJoin, ""}, {plan.NestLoop, ""}} {
		outer := over(scan("t2"), lt(col("t2", "a1"), 60))
		hand("filter-"+m.method.String(), over(equiJoin(t, db.Cat, m.method, outer, scan("t3"), col("t2", "a1"), col("t3", "a1")),
			lt(col("t3", "a10"), 16)), m.thin, "t2:t2.a1 < 60")
	}
	// The probe side decodes late on the key alone, its filter tested on the
	// record; the build side, filtered or not, whole: its table may be shared.
	hand("hash-probe-build-filtered", equiJoin(t, db.Cat, plan.HashJoin,
		over(scan("t3"), lt(col("t3", "u10"), 8)), over(scan("t2"), lt(col("t2", "a1"), 600)),
		col("t3", "a1"), col("t2", "a1")), "t3:a1", "t2:t2.a1 < 600 t3:t3.u10 < 8")
	handP("filter-indexnl", over(indexNL(), lt(col("t3", "u10"), 5)), "t1:a1", "", "")
	// An index nested loop's outer tests its filter on the record and decodes
	// the probe key alone (serially; at P > 1 its scan heads an exchange and
	// decodes whole, the filter still absorbed); the inner chain is the join's.
	handP("absorbed-indexnl-outer", equiJoin(t, db.Cat, plan.IndexNestLoop, over(scan("t1"), lt(col("t1", "ua1"), 100)),
		over(scan("t3"), lt(col("t3", "u10"), 5)), col("t1", "a1"), col("t3", "a1")), "t1:a1", "", "t1:t1.ua1 < 100")
	hand("topk-filter", &plan.TopK{Input: t6(), K: 25, Key: col("t6", "ua1"), Desc: true}, "", "t6:t6.ua1 < 700")
	hand("limit-filter", &plan.Limit{Input: t6(), K: 25}, "", "t6:t6.ua1 < 700")
	// A hash join orderedNodes keeps serial at every worker count: its probe
	// chain must stay serial with it, for the scan's batches to reach it.
	hand("limit-hashjoin", &plan.Limit{K: 40, Input: equiJoin(t, db.Cat, plan.HashJoin,
		over(scan("t3"), lt(col("t3", "u10"), 8)), scan("t2"), col("t3", "a1"), col("t2", "a1"))}, "t3:a1", "t3:t3.u10 < 8")
	hand("sort-filter", &plan.TopK{Input: t6(), K: -1, Key: col("t6", "ua1")}, "", "t6:t6.ua1 < 700")
	handP("indexnl", indexNL(), "t1:a1", "", "")
	hand("nl-over-indexnl", equiJoin(t, db.Cat, plan.NestLoop, few, indexNL(), col("t2", "a10"), col("t1", "a10")), "t1:a1", "t2:t2.ua1 < 12")
	// A nested loop's rescanned inner decodes late on what its primary reads
	// of it, and what the inner's filter chain reads, but for the filters its
	// scan tests on the record; the outer stays whole. A bare inner scan, or
	// one under the filters it tests on the record, is read once and replayed
	// (sweepTape), so it decodes whole. Through a join it does not reach (the
	// hash join's probe side decodes late for that join, as anywhere), and a
	// cross product, whose every pair survives, keeps its inner whole.
	hand("nl-inner-filters", equiJoin(t, db.Cat, plan.NestLoop, few,
		over(over(scan("t3"), lt(col("t3", "u10"), 50)), lt(col("t3", "ua1"), 500)), col("t2", "a1"), col("t3", "a1")),
		"", "t2:t2.ua1 < 12 t3:t3.u10 < 50;t3.ua1 < 500")
	hand("nl-inner-udf", equiJoin(t, db.Cat, plan.NestLoop, few,
		over(over(scan("t3"), lt(col("t3", "u10"), 50)), udf(col("t3", "u20"))), col("t2", "a1"), col("t3", "a1")),
		"t3:a1,u20", "t2:t2.ua1 < 12 t3:t3.u10 < 50")
	hand("nl-inner-hashjoin", equiJoin(t, db.Cat, plan.NestLoop, few,
		equiJoin(t, db.Cat, plan.HashJoin, scan("t3"), over(scan("t1"), lt(col("t1", "ua1"), 100)), col("t3", "a1"), col("t1", "a1")),
		col("t2", "a10"), col("t3", "a10")), "t3:a1", "t1:t1.ua1 < 100 t2:t2.ua1 < 12")
	hand("nl-cheap-cmp", joinOn(t, db.Cat, plan.NestLoop, few, scan("t3"), col("t2", "ua1"), expr.OpGT, col("t3", "ua1")), "", "t2:t2.ua1 < 12")
	cross := &plan.Join{Method: plan.NestLoop, Outer: few, Inner: over(scan("t3"), lt(col("t3", "u10"), 5))}
	cross.ColRefs = plan.ConcatCols(cross.Outer, cross.Inner)
	hand("nl-cross", cross, "", "t2:t2.ua1 < 12 t3:t3.u10 < 5")
	handP("hash-build-indexnl", equiJoin(t, db.Cat, plan.HashJoin, scan("t2"), indexNL(), col("t2", "ua1"), col("t3", "ua1")), "t1:a1 t2:ua1", "t2:ua1", "")
	return shapes
}

// TestArenaMatrix is the lifetime gate of the one row-memory rule: over the
// arenaShapes times the executor grid, the rows a query returns are the rows
// it produced — after Run released the query's slabs (every one it took:
// arenaIdle), poisoned them, and another query carved its own rows out of
// them.
func TestArenaMatrix(t *testing.T) {
	poisonOn(t)
	for _, sh := range arenaShapes(t) {
		db := sh.db
		scribble := equiJoin(t, db.Cat, plan.HashJoin, scanNode(t, db.Cat, "t3"), scanNode(t, db.Cat, "t10"),
			query.ColRef{Table: "t3", Col: "ua1"}, query.ColRef{Table: "t10", Col: "ua1"})
		t.Run(sh.name, func(t *testing.T) {
			for knobs := 0; knobs < 8; knobs++ {
				transfer, caching, profile := knobs&1 != 0, knobs&2 != 0, knobs&4 != 0
				root := sh.root(t, caching, transfer)
				for _, p := range []int{1, 2, 4} {
					thin := sh.thin
					if p > 1 {
						thin = sh.parThin
					}
					if got, abs := thinSummary(t, db.Cat, root, p); sh.hand && (got != thin || abs != sh.absorbs) {
						t.Fatalf("%s P=%d: Build has %q decode late and absorbs %q, want %q and %q", sh.name, p, got, abs, thin, sh.absorbs)
					}
					for _, bs := range []int{1, 7, 256} {
						name := fmt.Sprintf("%s transfer=%v caching=%v profile=%v P=%d BS=%d", sh.name, transfer, caching, profile, p, bs)
						env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(caching, 0),
							Parallelism: p, BatchSize: bs, Transfer: transfer, Profile: profile}
						want, _ := drainSnapshot(t, env, root)
						res, err := Run(env, root)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if _, err := Run(&Env{Cat: db.Cat, Pool: db.Pool, CountOnly: true, Parallelism: p}, scribble); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						arenaIdle(t, name, env)
						if sh.hand && len(res.Rows) == 0 {
							t.Fatalf("%s: the shape delivers no rows, so nothing of them is checked", name)
						}
						noPoison(t, name, res.Rows)
						if p == 1 || deliversInOrder(root) {
							sameRows(t, name, res.Rows, want)
						} else {
							sameRowMultiset(t, res.Rows, want)
						}
					}
				}
			}
		})
	}
}

// TestThinScanStaysInItsSegment: a thin row is good until its scan's next
// NextBatch, so a scan decodes late only where its batches reach their
// consumer directly. orderedNodes marks a hash join together with its probe
// chain; were any one of them serial and the others not — an exchange or a
// shared source between the scan and the join — Build must leave the scan
// whole, and so must a filter whose predicate names no columns.
func TestThinScanStaysInItsSegment(t *testing.T) {
	db := figuresDB(t, 0.005)
	col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
	scan := scanNode(t, db.Cat, "t3")
	pred := &query.Predicate{Kind: query.KindSelCmp, Op: expr.OpLT, Left: col("t3", "u10"), Value: expr.I(8)}
	filter := &plan.Filter{Input: scan, Pred: pred}
	join := equiJoin(t, db.Cat, plan.HashJoin, filter, scanNode(t, db.Cat, "t2"), col("t3", "a1"), col("t2", "a1"))
	root := &plan.Filter{Input: filter, Pred: pred}
	for _, consumer := range []plan.Node{join, root} {
		env := &Env{Cat: db.Cat, Parallelism: 4}
		if got := env.thinScans(consumer); got[scan] == nil {
			t.Fatalf("%s: its scan decodes whole rows with nothing kept serial", consumer.Describe())
		}
		for _, serial := range []plan.Node{consumer, filter, scan} {
			env.ordered = map[plan.Node]bool{serial: true}
			// A cheap filter is a segment only over one: with the scan serial
			// the root filter's whole chain is, and may decode late.
			want := consumer == root && serial == scan
			if got := env.thinScans(consumer); (got != nil) != want {
				t.Fatalf("%s with only %s serial: scan decodes late = %v, want %v", consumer.Describe(), serial.Describe(), got != nil, want)
			}
		}
		env.ordered = nil
		pred.Kind = 0
		if got := env.thinScans(consumer); got != nil {
			t.Fatalf("%s over a predicate of unknown kind: scan still decodes late", consumer.Describe())
		}
		pred.Kind = query.KindSelCmp
	}
}

// deliversInOrder reports whether root's row order is specified even under
// parallel execution: a TopK or an ordered Limit root.
func deliversInOrder(root plan.Node) bool {
	switch root.(type) {
	case *plan.TopK, *plan.Limit:
		return true
	}
	return false
}

// TestArenaNulls pins the "callers overwrite every slot" contract of
// rowAlloc.next, which session isolation now rests on: a NULL column of a
// row carved from a recycled — here poisoned — slab decodes to expr.Null.
func TestArenaNulls(t *testing.T) {
	poisonOn(t)
	db, _ := newEnv(t, []int{1}, false)
	cols := []catalog.Column{
		{Name: "k", Type: expr.TInt}, {Name: "b", Type: expr.TBool}, {Name: "s", Type: expr.TString, FixedLen: 6}}
	codec, err := catalog.NewRowCodec(cols)
	if err != nil {
		t.Fatal(err)
	}
	tab := &catalog.Table{Name: "nulls", Columns: cols, Codec: codec, TupleBytes: codec.Width(), Heap: storage.NewHeapFile(db.Pool)}
	var want []expr.Row
	for i := 0; i < 3*slabValues/len(cols); i++ {
		row := expr.Row{expr.I(int64(i)), expr.B(i%2 == 0), expr.S(fmt.Sprint("s", i%7))}
		row[i%3] = expr.Null
		rec, err := codec.Encode(row)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}
	tab.Card = int64(len(want))
	db.Cat.AddTable(tab)
	// nulls ⋈ t1: the scan of nulls carves from the query's pool, which every
	// run leaves poisoned on the free list for the next.
	k, ua1 := query.ColRef{Table: "nulls", Col: "k"}, query.ColRef{Table: "t1", Col: "ua1"}
	j := equiJoin(t, db.Cat, plan.HashJoin, scanNode(t, db.Cat, "t1"), scanNode(t, db.Cat, "nulls"), ua1, k)
	width := len(j.Outer.Cols())
	for run := 0; run < 2; run++ {
		for _, p := range []int{1, 4} {
			res, err := Run(&Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0), Parallelism: p}, j)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatal("empty join")
			}
			for _, r := range res.Rows {
				if got, want := rowKey(r[width:]), rowKey(want[r[width].I]); got != want {
					t.Fatalf("run %d P=%d: decoded %s, stored %s", run, p, got, want)
				}
			}
		}
	}
}

// arenaIdle fails unless the Env's pool has given every slab back and the
// process-wide free list balances.
func arenaIdle(t *testing.T, what string, env *Env) {
	t.Helper()
	if env.slabs.slabs != nil || env.slabs.used != 0 {
		t.Fatalf("%s: the query's pool still holds %d slabs", what, len(env.slabs.slabs))
	}
	if g, p := slabGets.Load(), slabPuts.Load(); g != p {
		t.Fatalf("%s: %d slabs taken from the free list, %d returned", what, g, p)
	}
}

// TestArenaReleased: Run gives the query's slabs back on every exit, and
// every nested-loop pool inside the tree does at Close — after success, a
// budget DNF, an injected read error mid-scan, a cancellation mid-probe and
// a transfer-prepass abort, serial and parallel, with no goroutine left.
func TestArenaReleased(t *testing.T) {
	db := figuresDB(t, 0.02)
	col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
	mig := optimizer.Options{Algorithm: optimizer.Migration}
	newEnv := func(p int) *Env {
		return &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0), Parallelism: p}
	}
	// cancelAfter is a filter over a hash join whose UDF cancels the query at
	// its n-th call: the build is long done, the probe is in flight.
	cancelAfter := func(cancel context.CancelFunc, n int64) plan.Node {
		var calls atomic.Int64 // a parallel filter's workers call Eval concurrently
		f := &expr.FuncDef{Name: "cancelprobe", Arity: 1, Cost: 1, Selectivity: 1, Eval: func([]expr.Value) expr.Value {
			if calls.Add(1) == n {
				cancel()
			}
			return expr.B(true)
		}}
		j := equiJoin(t, db.Cat, plan.HashJoin, scanNode(t, db.Cat, "t9"), scanNode(t, db.Cat, "t10"),
			col("t9", "a10"), col("t10", "a10"))
		return &plan.Filter{Input: j, Pred: &query.Predicate{Kind: query.KindFunc, Func: f, Args: []query.ColRef{col("t9", "u10")}}}
	}
	for _, p := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		check := func(what string, env *Env) {
			t.Helper()
			waitTeardown(t, env, baseline)
			arenaIdle(t, fmt.Sprintf("%s P=%d", what, p), env)
		}

		env := newEnv(p)
		for _, sql := range []string{sqlQuery3, sqlQuery4, sqlQuery5} { // hash, merge, nested-loop pools
			if res, err := Run(env, planSQL(t, db.Cat, sql, mig)); err != nil || res.DNF || len(res.Rows) == 0 {
				t.Fatalf("P=%d: %v %+v", p, err, res)
			}
			check("success", env)
		}

		env = newEnv(p)
		env.Budget = 3000
		if res, err := Run(env, planSQL(t, db.Cat, sqlQuery5, mig)); err != nil || !res.DNF {
			t.Fatalf("P=%d budget: want DNF, got %v %+v", p, err, res)
		}
		check("budget DNF", env)

		env = newEnv(p)
		if err := db.Pool.EvictUnpinned(); err != nil {
			t.Fatal(err)
		}
		db.Disk.SetFaults(storage.NewFaultInjector(storage.FaultConfig{FailReadN: 12}))
		_, err := Run(env, planSQL(t, db.Cat, sqlQuery3, mig))
		db.Disk.SetFaults(nil)
		if !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("P=%d fault: want the injected fault, got %v", p, err)
		}
		check("read fault", env)

		env = newEnv(p)
		ctx, cancel := context.WithCancel(context.Background())
		env.Ctx = ctx
		_, err = Run(env, cancelAfter(cancel, 40))
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("P=%d cancel: want ErrCanceled, got %v", p, err)
		}
		check("cancel mid-probe", env)

		env = newEnv(p)
		env.Transfer, env.Budget = true, 1
		res, err := Run(env, planSQL(t, db.Cat, sqlQuery4, optimizer.Options{Algorithm: optimizer.Migration, Transfer: true}))
		if err != nil || !res.DNF || env.transfer != nil {
			t.Fatalf("P=%d prepass: want a DNF from the prepass, got %v %+v", p, err, res)
		}
		check("prepass abort", env)
	}
}

// figuresAllocParent is what one warmed round of Queries 1-4 (Migration,
// scale 0.05, collector off) allocated at the parent commit, where every
// scan and join carved fresh slabs: measured with this test's loop.
const figuresAllocParent = 17409776 // bytes

// TestFiguresAllocBudget is the deterministic form of the benchmark's
// alloc_mb_per_op: with the collector off the free list is never trimmed, so
// a warmed round allocates its result rows and header slices and little
// else — at most half of what the parent allocated.
func TestFiguresAllocBudget(t *testing.T) {
	if SlabPoison {
		t.Skip("under the race detector sync.Pool drops a quarter of its puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	db, err := datagen.Build(datagen.Config{Scale: 0.05, Tables: []int{1, 3, 9, 10}})
	if err != nil {
		t.Fatal(err)
	}
	var roots []plan.Node
	for _, sql := range []string{sqlQuery1, sqlQuery2, sqlQuery3, sqlQuery4} {
		roots = append(roots, planSQL(t, db.Cat, sql, optimizer.Options{Algorithm: optimizer.Migration}))
	}
	round := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, root := range roots {
			env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0)}
			if _, err := Run(env, root); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	round()
	got := round()
	t.Logf("one warmed round allocates %d bytes (parent: %d)", got, figuresAllocParent)
	if 2*got > figuresAllocParent {
		t.Fatalf("one warmed round of Queries 1-4 allocates %d bytes, more than half the parent's %d", got, figuresAllocParent)
	}
}

// carved returns how many values the allocators that share p, and nobody
// else, have carved from it.
func carved(p *slabPool, as ...*rowAlloc) int {
	n := p.used * slabValues
	for _, a := range as {
		n -= len(a.slab)
	}
	return n
}

// TestRejectedFetchCarvesNothing: a fetched row that is then rejected — by an
// index nested loop's residual filter — leaves its slot to the next fetch,
// and a record a transfer probe on an index scan or a filter a scan absorbed
// rejects is never carved, so what an operator carves is what it emits (and
// at most the one row it holds ready).
func TestRejectedFetchCarvesNothing(t *testing.T) {
	db := figuresDB(t, 0.02)
	col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
	t3 := scanNode(t, db.Cat, "t3")
	width := len(t3.ColRefs)
	pred := func(v int64) *query.Predicate {
		return &query.Predicate{Kind: query.KindSelCmp, Op: expr.OpLT, Left: col("t3", "u10"), Value: expr.I(v)}
	}
	// Index nested loop: every fetch rejected, then two in five kept.
	for _, bound := range []int64{0, 4} {
		env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0)}
		env.begin()
		j := equiJoin(t, db.Cat, plan.IndexNestLoop, scanNode(t, db.Cat, "t1"),
			&plan.Filter{Input: t3, Pred: pred(bound)}, col("t1", "a1"), col("t3", "a1"))
		var own slabPool
		it, err := newIndexNLJoin(env, j, &own)
		if err != nil {
			t.Fatal(err)
		}
		_, n, err := collect(env, it, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		inl := it.(*indexNLJoinIter)
		outer := inl.outer.(*seqScanIter)
		t1, _ := db.Cat.Table("t1")
		got := carved(&own, &inl.inner, &outer.alloc, &inl.alloc) - (int(t1.Card)+2*n)*width // less the outer's rows and the pairs
		if most := (n + 1) * width; got > most || (bound == 0 && n != 0) || (bound != 0 && n == 0) {
			t.Fatalf("u10 < %d: %d pairs out, %d values carved for fetched rows, want at most %d", bound, n, got, most)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		own.release()
		env.slabs.release()
	}
	// Index scan under transfer: t6 restricted to the few a1 values t1 has.
	env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0), Transfer: true}
	env.begin()
	hi := expr.I(1 << 40)
	ix := &plan.IndexScan{Table: "t6", Col: "a10", Hi: &hi, ColRefs: scanNode(t, db.Cat, "t6").Cols()}
	few := &plan.Filter{Input: scanNode(t, db.Cat, "t1"), Pred: &query.Predicate{
		Kind: query.KindSelCmp, Op: expr.OpLT, Left: col("t1", "ua1"), Value: expr.I(20)}}
	root := equiJoin(t, db.Cat, plan.HashJoin, ix, few, col("t6", "ua1"), col("t1", "ua1"))
	if err := env.runTransferPrepass(root); err != nil {
		t.Fatal(err)
	}
	env.gates = env.planGates(root)
	var own slabPool
	it, err := newIndexScan(env, ix, &own)
	if err != nil {
		t.Fatal(err)
	}
	_, n, err := collect(env, it, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	s := it.(*indexScanIter)
	tab, _ := db.Cat.Table("t6")
	if len(s.gates.list) == 0 || n == 0 || int64(n) >= tab.Card/2 {
		t.Fatalf("the transfer probe let %d of t6's %d rows through: not the case under test", n, tab.Card)
	}
	if got, most := carved(&own, &s.alloc), (n+1)*len(ix.ColRefs); got > most {
		t.Fatalf("index scan emitted %d rows and carved %d values, want at most %d", n, got, most)
	}
	own.release()
	env.slabs.release()
	// Heap and index scans under a cheap filter they absorb, whole-row: every
	// value carved is an emitted row's.
	t3Tab, err := db.Cat.Table("t3")
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []plan.Node{t3, &plan.IndexScan{Table: "t3", Col: "a10", Hi: &hi, ColRefs: t3.ColRefs}} {
		env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0)}
		env.begin()
		root := &plan.Filter{Input: base, Pred: pred(3)}
		env.runs = env.recordRuns(root)
		env.gates = env.planGates(root)
		var own slabPool
		it, err := build(env, root, &own)
		if err != nil {
			t.Fatal(err)
		}
		_, n, err := collect(env, it, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		var alloc *rowAlloc
		switch s := it.(type) {
		case *seqScanIter:
			alloc = &s.alloc
		case *indexScanIter:
			alloc = &s.alloc
		default:
			t.Fatalf("%s: the filter was built as %T, not absorbed by its scan", root.Describe(), it)
		}
		if got := carved(&own, alloc); n == 0 || int64(n) >= t3Tab.Card/2 || got != n*width {
			t.Fatalf("%s: %d rows kept, %d values carved, want %d", base.Describe(), n, got, n*width)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		own.release()
		env.slabs.release()
	}
}
