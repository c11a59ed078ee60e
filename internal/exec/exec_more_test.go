package exec

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

func TestBudgetAbortsDuringHashBuild(t *testing.T) {
	// The hash join builds its table in Open; an expensive inner filter must
	// trip the budget during the build, not after.
	db, env := newEnv(t, []int{1, 2}, false)
	f, _ := db.Cat.Func("costly100")
	q, _ := query.NewQuery([]string{"t1", "t2"}, []*query.Predicate{
		{Kind: query.KindJoinCmp, Op: expr.OpEQ,
			Left: query.ColRef{Table: "t1", Col: "ua1"}, Right: query.ColRef{Table: "t2", Col: "ua1"}},
		{Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t2", Col: "ua1"}}},
	})
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	inner := &plan.Filter{Input: scanNode(t, db.Cat, "t2"), Pred: q.Preds[1]}
	j := &plan.Join{Method: plan.HashJoin, Outer: outer, Inner: inner, Primary: q.Preds[0]}
	j.ColRefs = plan.ConcatCols(outer, inner)
	env.Budget = 500
	res, err := Run(env, j)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DNF {
		t.Fatal("expected DNF during hash build")
	}
}

func TestMergeJoinDuplicateRunsBothSides(t *testing.T) {
	// a10 join: ~10 duplicates per key on each side — every pairing must be
	// produced exactly once.
	db, env := newEnv(t, []int{2}, false)
	_ = env
	db2, env2 := newEnv(t, []int{2, 4}, false)
	_ = db
	q, _ := query.NewQuery([]string{"t2", "t4"}, []*query.Predicate{
		{Kind: query.KindJoinCmp, Op: expr.OpEQ,
			Left: query.ColRef{Table: "t2", Col: "a10"}, Right: query.ColRef{Table: "t4", Col: "a10"}},
	})
	query.Analyze(db2.Cat, q)
	outer := scanNode(t, db2.Cat, "t2")
	inner := scanNode(t, db2.Cat, "t4")
	j := &plan.Join{Method: plan.MergeJoin, Outer: outer, Inner: inner,
		Primary: q.Preds[0], SortOuter: true, SortInner: true}
	j.ColRefs = plan.ConcatCols(outer, inner)
	res, err := Run(env2, j)
	if err != nil {
		t.Fatal(err)
	}
	// t2: 400 tuples, 40 a10-values ×10; t4: 800 tuples, 80 values ×10.
	// Shared values: 40 → 40 × 10 × 10 = 4000 output pairs.
	if res.Stats.Rows != 4000 {
		t.Fatalf("rows = %d, want 4000", res.Stats.Rows)
	}
}

func TestNextBeforeOpenFails(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	it, err := Build(env, scanNode(t, db.Cat, "t1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := next(it); err == nil {
		t.Fatal("NextBatch before Open should error")
	}
}

func TestExpensivePrimaryCached(t *testing.T) {
	// With caching on, the expensive join predicate's invocations collapse
	// to the distinct binding pairs.
	db, env := newEnv(t, []int{1, 2}, true)
	f, _ := db.Cat.Func("costly10join")
	q, _ := query.NewQuery([]string{"t1", "t2"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f,
		Args: []query.ColRef{{Table: "t1", Col: "u100"}, {Table: "t2", Col: "u100"}},
	}})
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	inner := scanNode(t, db.Cat, "t2")
	j := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner,
		Primary: q.Preds[0], ExpensivePrimary: true}
	j.ColRefs = plan.ConcatCols(outer, inner)
	res, err := Run(env, j)
	if err != nil {
		t.Fatal(err)
	}
	t1tab, _ := db.Cat.Table("t1")
	t2tab, _ := db.Cat.Table("t2")
	// distinct(t1.u100) × distinct(t2.u100) = 2 × 4 = 8 bindings.
	distinct := (t1tab.Card / 100) * (t2tab.Card / 100)
	if res.Stats.Invocations["costly10join"] != distinct {
		t.Fatalf("invocations = %d, want %d (distinct pairs)",
			res.Stats.Invocations["costly10join"], distinct)
	}
}

func TestCrossProductNLJoin(t *testing.T) {
	db, env := newEnv(t, []int{1, 2}, false)
	outer := scanNode(t, db.Cat, "t1")
	inner := scanNode(t, db.Cat, "t2")
	j := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner} // Primary nil
	j.ColRefs = plan.ConcatCols(outer, inner)
	env.CountOnly = true
	res, err := Run(env, j)
	if err != nil {
		t.Fatal(err)
	}
	t1tab, _ := db.Cat.Table("t1")
	t2tab, _ := db.Cat.Table("t2")
	if int64(res.Stats.Rows) != t1tab.Card*t2tab.Card {
		t.Fatalf("cross product rows = %d, want %d", res.Stats.Rows, t1tab.Card*t2tab.Card)
	}
}

func TestUnknownJoinMethodRejected(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	outer := scanNode(t, db.Cat, "t1")
	j := &plan.Join{Method: plan.JoinMethod(99), Outer: outer, Inner: outer}
	if _, err := Build(env, j); err == nil {
		t.Fatal("unknown method should be rejected")
	}
}

func TestIndexNLRequiresEqualityPrimary(t *testing.T) {
	db, env := newEnv(t, []int{1, 2}, false)
	q, _ := query.NewQuery([]string{"t1", "t2"}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpLT,
		Left: query.ColRef{Table: "t1", Col: "a1"}, Right: query.ColRef{Table: "t2", Col: "a1"},
	}})
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	inner := scanNode(t, db.Cat, "t2")
	j := &plan.Join{Method: plan.IndexNestLoop, Outer: outer, Inner: inner,
		Primary: q.Preds[0], InnerIndexCol: "a1"}
	if _, err := Build(env, j); err == nil {
		t.Fatal("inequality primary should be rejected for index NL")
	}
}

func TestConcurrentReadOnlyQueries(t *testing.T) {
	// Separate Envs over the same storage must be able to scan concurrently
	// (the buffer pool and accountant are mutex-guarded).
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := &Env{Cat: db.Cat, Pool: db.Pool,
				Cache: pcache.NewManager(false, 0), CountOnly: true}
			tab, _ := db.Cat.Table("t3")
			cols := make([]query.ColRef, len(tab.Columns))
			for i, c := range tab.Columns {
				cols[i] = query.ColRef{Table: "t3", Col: c.Name}
			}
			it, err := Build(env, &plan.SeqScan{Table: "t3", ColRefs: cols})
			if err != nil {
				errs <- err
				return
			}
			if err := it.Open(); err != nil {
				errs <- err
				return
			}
			n := 0
			for {
				_, ok, err := next(it)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					break
				}
				n++
			}
			it.Close()
			if n != int(tab.Card) {
				errs <- fmt.Errorf("scanned %d, want %d", n, tab.Card)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{SyntheticIO: 5, FuncCharge: 100, Rows: 3,
		IO: storage.IOStats{SeqReads: 10, RandReads: 2}}
	out := s.String()
	if out == "" || s.Charged() != 117 {
		t.Fatalf("stats = %q charged=%v", out, s.Charged())
	}
}

// TestHoldsCachedTuplePathAllocFree pins the tuple path's allocation
// contract: evaluating a cached function predicate row by row reuses the
// operator's scratch — no argument slice, no key string per row.
func TestHoldsCachedTuplePathAllocFree(t *testing.T) {
	db, env := newEnv(t, []int{1}, true)
	f, _ := db.Cat.Func("costly10join")
	scan := scanNode(t, db.Cat, "t1")
	q, _ := query.NewQuery([]string{"t1"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f,
		Args: []query.ColRef{{Table: "t1", Col: "u10"}, {Table: "t1", Col: "u100"}},
	}})
	query.Analyze(db.Cat, q)
	env.begin()
	cp, err := compilePred(env, q.Preds[0], scan.Cols())
	if err != nil {
		t.Fatal(err)
	}
	rows := naiveRows(t, db.Cat, "t1")
	var sc predScratch
	pass := func() {
		for _, row := range rows {
			if _, err := cp.holds(env, row, &sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm the cache and the scratch buffers
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("%v allocations per pass over %d cached rows, want 0", allocs, len(rows))
	}
}

// TestTopKMatchesSort holds a TopK over t1 — bounded and not, ascending and
// descending on a column with repeats, ties broken on ua1 — to the table's
// rows sorted in the test, and cut at K.
func TestTopKMatchesSort(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	rows := naiveRows(t, db.Cat, "t1")
	scan := scanNode(t, db.Cat, "t1")
	key, tie := query.ColRef{Table: "t1", Col: "u20"}, query.ColRef{Table: "t1", Col: "ua1"}
	ki, ti := plan.ColIndex(scan, key), plan.ColIndex(scan, tie)
	for _, desc := range []bool{false, true} {
		for _, k := range []int64{7, -1} {
			name := fmt.Sprintf("desc=%v K=%d", desc, k)
			res, err := Run(env, &plan.TopK{Input: scan, K: k, Key: key, Desc: desc, Tie: []query.ColRef{tie}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := slices.Clone(rows)
			slices.SortFunc(want, func(a, b expr.Row) int {
				c := a[ki].Compare(b[ki])
				if desc {
					c = -c
				}
				if c != 0 {
					return c
				}
				return a[ti].Compare(b[ti])
			})
			if k >= 0 {
				want = want[:k]
			}
			sameRows(t, name, res.Rows, want)
		}
	}
}
