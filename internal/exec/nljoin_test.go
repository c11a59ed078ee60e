package exec

import (
	"fmt"
	"math"
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

// drainSnapshot runs root the way Run does, but copies every output row the
// moment it is produced and compares the retained rows with those copies
// once the tree is closed and the query's slabs are released: a row whose
// slab was recycled after it was handed out (a nested loop's rescan-scoped
// inner rows, or any row below the result-producing operator, leaking into a
// result) no longer matches its snapshot.
func drainSnapshot(t *testing.T, env *Env, root plan.Node) ([]expr.Row, Stats) {
	t.Helper()
	env.begin()
	if env.Transfer {
		if err := env.runTransferPrepass(root); err != nil {
			t.Fatal(err)
		}
	}
	it, err := Build(env, root)
	if err != nil {
		t.Fatal(err)
	}
	var snap []expr.Row
	rows, _, err := collect(env, &snapshotIter{Iterator: it, snap: &snap}, root.Card(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	stats := env.finish(len(rows))
	env.slabs.release()
	sameRows(t, "rows retained past release vs. as produced", rows, snap)
	return rows, stats
}

// snapshotIter deep-copies every row its input hands up.
type snapshotIter struct {
	Iterator
	snap *[]expr.Row
}

func (s *snapshotIter) NextBatch(dst []expr.Row) (int, error) {
	n, err := s.Iterator.NextBatch(dst)
	if err != nil {
		return 0, err
	}
	for _, row := range dst[:n] {
		*s.snap = append(*s.snap, append(expr.Row(nil), row...))
	}
	return n, nil
}

// TestNLJoinMatrix runs a nested loop with an expensive primary over every
// shape of inner subtree — a scan and a run of cheap filters over one, read
// once and replayed, and a filter chain over one decoding late for the
// primary, rescanned — and with a cheap theta primary, across the executor
// grid, with caching on and off. Every configuration must reproduce
// the width-1 serial run: the same rows (in the same order when serial), the
// same charged cost, the same invocation and cache counts.
func TestNLJoinMatrix(t *testing.T) {
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := db.Cat.Func("costly10join")
	if err != nil {
		t.Fatal(err)
	}
	f1, err := db.Cat.Func("costly1")
	if err != nil {
		t.Fatal(err)
	}
	col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
	below := func(tab string, v int64) *query.Predicate {
		return &query.Predicate{Kind: query.KindSelCmp, Op: expr.OpLT, Left: col(tab, "ua1"), Value: expr.I(v)}
	}
	q, err := query.NewQuery([]string{"t1", "t2", "t3"}, []*query.Predicate{
		below("t1", 30), below("t2", 300), below("t2", 200), below("t3", 2),
		{Kind: query.KindJoinCmp, Op: expr.OpEQ, Left: col("t2", "ua1"), Right: col("t3", "ua1")},
		{Kind: query.KindFunc, Func: f, Args: []query.ColRef{col("t1", "u10"), col("t2", "u10")}},
		{Kind: query.KindJoinCmp, Op: expr.OpGT, Left: col("t1", "ua1"), Right: col("t2", "ua1")},
		{Kind: query.KindFunc, Func: f1, Args: []query.ColRef{col("t2", "u20")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(db.Cat, q)
	scan := func(tab string) plan.Node { return scanNode(t, db.Cat, tab) }
	filter := func(in plan.Node, p *query.Predicate) plan.Node { return &plan.Filter{Input: in, Pred: p} }
	join := func(m plan.JoinMethod, outer, inner plan.Node, primary *query.Predicate) plan.Node {
		return &plan.Join{Method: m, Outer: outer, Inner: inner, Primary: primary,
			ExpensivePrimary: primary != nil && primary.IsExpensive(),
			SortOuter:        true, SortInner: true, ColRefs: plan.ConcatCols(outer, inner)}
	}
	// thin is what decodes late (thinSummary): a rescanned inner scan, on the
	// primary's and its expensive filter's inner columns — its cheap filters
	// it tests on the record —, or a hash join's probe. A replayed inner scan
	// decodes whole.
	inners := []struct {
		name    string
		node    plan.Node
		primary *query.Predicate
		thin    string
	}{
		{"scan", scan("t2"), q.Preds[5], ""},
		{"filter", filter(scan("t2"), q.Preds[1]), q.Preds[5], ""},
		{"filters", filter(filter(scan("t2"), q.Preds[1]), q.Preds[2]), q.Preds[5], ""},
		{"thin-inner", filter(filter(scan("t2"), q.Preds[1]), q.Preds[7]), q.Preds[5], "t2:u10,u20"},
		{"cheap-primary", filter(scan("t2"), q.Preds[1]), q.Preds[6], ""},
		{"hashjoin", join(plan.HashJoin, scan("t2"), scan("t3"), q.Preds[4]), q.Preds[5], "t2:ua1"},
		{"mergejoin", join(plan.MergeJoin, scan("t2"), scan("t3"), q.Preds[4]), q.Preds[5], ""},
		// A nested loop inside the inner: its own output and outer rows are
		// carved from the enclosing join's recycled slabs.
		{"nestloop", join(plan.NestLoop, filter(scan("t3"), q.Preds[3]), filter(scan("t2"), q.Preds[2]), nil), q.Preds[5], ""},
	}
	for _, in := range inners {
		root := join(plan.NestLoop, filter(scan("t1"), q.Preds[0]), in.node, in.primary)
		for _, p := range []int{1, 4} {
			if got, _ := thinSummary(t, db.Cat, root, p); got != in.thin {
				t.Fatalf("%s P=%d: Build has %q decode late, want %q", in.name, p, got, in.thin)
			}
		}
		for _, caching := range []bool{false, true} {
			env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(caching, 0), BatchSize: 1}
			base, baseStats := drainSnapshot(t, env, root)
			if len(base) == 0 {
				t.Fatalf("%s: empty baseline", in.name)
			}
			for _, p := range []int{1, 4} {
				for _, bs := range []int{1, 7, 256} {
					name := fmt.Sprintf("%s caching=%v P=%d BS=%d", in.name, caching, p, bs)
					env.Parallelism, env.BatchSize = p, bs
					rows, stats := drainSnapshot(t, env, root)
					if p == 1 {
						sameRows(t, name, rows, base)
					} else {
						sameRowMultiset(t, rows, base)
					}
					if got, want := stats.Charged(), baseStats.Charged(); got != want {
						t.Fatalf("%s: charged %v, width-1 serial %v", name, got, want)
					}
					if got, want := stats.Invocations[f.Name], baseStats.Invocations[f.Name]; got != want {
						t.Fatalf("%s: %d invocations, width-1 serial %d", name, got, want)
					}
					if stats.CacheHits != baseStats.CacheHits || stats.CacheMisses != baseStats.CacheMisses ||
						stats.CacheEntries != baseStats.CacheEntries {
						t.Fatalf("%s: cache %d/%d/%d, width-1 serial %d/%d/%d", name,
							stats.CacheHits, stats.CacheMisses, stats.CacheEntries,
							baseStats.CacheHits, baseStats.CacheMisses, baseStats.CacheEntries)
					}
				}
			}
		}
	}
}

// BenchmarkNLJoinRescan is Query 5's hot loop at scale 0.02: a nested loop
// whose expensive primary is cached, rescanning t7 (1 400 rows) once per
// outer tuple — 120 of them, the outer stream Query 5's plan delivers — run
// serial and at Parallelism 2, where the rebuilt inner is serial too.
func BenchmarkNLJoinRescan(b *testing.B) {
	db, env := newEnv(b, []int{3, 7}, true)
	env.CountOnly = true
	f, err := db.Cat.Func("costly10join")
	if err != nil {
		b.Fatal(err)
	}
	q, err := query.NewQuery([]string{"t3", "t7"}, []*query.Predicate{
		{Kind: query.KindSelCmp, Op: expr.OpLT, Left: query.ColRef{Table: "t3", Col: "ua1"}, Value: expr.I(120)},
		{Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t3", Col: "u20"}, {Table: "t7", Col: "u20"}}},
	})
	if err != nil {
		b.Fatal(err)
	}
	query.Analyze(db.Cat, q)
	outer := &plan.Filter{Input: scanNode(b, db.Cat, "t3"), Pred: q.Preds[0]}
	inner := scanNode(b, db.Cat, "t7")
	root := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner, Primary: q.Preds[1],
		ExpensivePrimary: true, ColRefs: plan.ConcatCols(outer, inner)}
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			env.Parallelism = p
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(env, root)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += res.Stats.Rows
			}
		})
	}
}

// TestNLCachedPrimaryMatchesFilter holds a nested loop's cached primary to an
// oracle that is not its own evaluation: the same predicate as a filter over
// the bare cross product, Filter(pred, NestLoop(outer, inner, nil)), run
// serially at width 1. The filter evaluates the same bindings in the same
// order, one row at a time, with no outer row and no sweep memo, so the
// nested loop must match it in rows (in order), invocations of every
// function, hits, misses and entries — with unbounded tables, where the memo
// answers an inner value's repeats, and with tables bounded to 1, 4 and 64 entries, where FIFO
// eviction keeps the per-row protocol. The outer is an index scan, so its
// order, and with it a bounded table's evictions, is the same at every worker
// count. The inners: t7.u20 (each value 20 times), a t2.u10 whose cheap
// filters the scan absorbs, a t2.u10 under an expensive filter (rebuilt
// every sweep: its scan is no bare inner), sweepMemoTable's int column of
// extreme and colliding keys — also under a function that keeps NULL and
// keeps 0 only for an outer value of 0, so NULL and 0 get other verdicts in
// one sweep — its bool column, a column whose
// distinct values outgrow the memo's first table mid-sweep, and t7.u20 again
// with one scan running both gates a nested loop's inner can: transfer
// probes (from t1.u100 = t7.u100 over the loop) and a cheap filter it
// absorbed. Every inner but the one under an expensive filter is replayed.
// With unbounded tables the loop must also match the same plan with its
// gates and replays withheld (buildWithheld), at Parallelism {1, 3} ×
// BatchSize {1, 7, 256}, profiling off and on, in rows, charged cost,
// invocations, cache hits and every actual=.
func TestNLCachedPrimaryMatchesFilter(t *testing.T) {
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: []int{1, 2, 7}})
	if err != nil {
		t.Fatal(err)
	}
	sweepMemoTable(t, db)
	f, err := db.Cat.Func("costly10join")
	if err != nil {
		t.Fatal(err)
	}
	f1, err := db.Cat.Func("costly1")
	if err != nil {
		t.Fatal(err)
	}
	nullEq := &expr.FuncDef{Name: "nulleq", Arity: 2, Cost: 10, Selectivity: 0.5, Cacheable: true,
		Eval: func(args []expr.Value) expr.Value {
			a, b := args[0], args[1]
			return expr.B(a.IsNull() != b.IsNull() || !a.IsNull() && a.I == b.I)
		}}
	if err := db.Cat.RegisterFunc(nullEq); err != nil {
		t.Fatal(err)
	}
	col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
	join := func(outer, inner query.ColRef) *query.Predicate {
		return &query.Predicate{Kind: query.KindFunc, Func: f, Args: []query.ColRef{outer, inner}}
	}
	q, err := query.NewQuery([]string{"t1", "t2", "t7", "memo"}, []*query.Predicate{
		join(col("t1", "u20"), col("t7", "u20")),
		join(col("t2", "u10"), col("t1", "u10")),
		{Kind: query.KindSelCmp, Op: expr.OpLT, Left: col("t2", "ua1"), Value: expr.I(300)},
		{Kind: query.KindSelCmp, Op: expr.OpGE, Left: col("t2", "u100"), Value: expr.I(1)},
		{Kind: query.KindFunc, Func: f1, Args: []query.ColRef{col("t2", "u100")}},
		join(col("t1", "ua1"), col("memo", "k")),
		join(col("t1", "ua1"), col("memo", "b")),
		join(col("t1", "u20"), col("memo", "w")),
		{Kind: query.KindSelCmp, Op: expr.OpLT, Left: col("t7", "ua1"), Value: expr.I(1000)},
		{Kind: query.KindJoinCmp, Op: expr.OpEQ, Left: col("t1", "u100"), Right: col("t7", "u100")},
		{Kind: query.KindFunc, Func: nullEq, Args: []query.ColRef{col("t1", "ua1"), col("memo", "k")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(db.Cat, q)
	lo, hi := expr.I(0), expr.I(59)
	outer := &plan.IndexScan{Table: "t1", Col: "a1", Lo: &lo, Hi: &hi, ColRefs: scanNode(t, db.Cat, "t1").ColRefs}
	filter := func(in plan.Node, p *query.Predicate) plan.Node { return &plan.Filter{Input: in, Pred: p} }
	nestLoop := func(inner plan.Node, primary *query.Predicate) *plan.Join {
		return &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner, Primary: primary,
			ExpensivePrimary: primary != nil, ColRefs: plan.ConcatCols(outer, inner)}
	}
	memo := scanNode(t, db.Cat, "memo")
	for _, in := range []struct {
		name    string
		inner   plan.Node
		primary *query.Predicate
		taped   bool             // the loop replays its inner scan
		over    *query.Predicate // a filter over the loop and the oracle, with transfer on
	}{
		{"t7.u20", scanNode(t, db.Cat, "t7"), q.Preds[0], true, nil},
		{"t2.u10-filtered", filter(filter(scanNode(t, db.Cat, "t2"), q.Preds[2]), q.Preds[3]), q.Preds[1], true, nil},
		{"t2.u10-costly-filter", filter(filter(scanNode(t, db.Cat, "t2"), q.Preds[2]), q.Preds[4]), q.Preds[1], false, nil},
		{"memo.k", memo, q.Preds[5], true, nil},
		{"memo.k-nulleq", memo, q.Preds[10], true, nil},
		{"memo.b", memo, q.Preds[6], true, nil},
		{"memo.w", memo, q.Preds[7], true, nil},
		{"t7.u20-stacked", filter(scanNode(t, db.Cat, "t7"), q.Preds[8]), q.Preds[0], true, q.Preds[9]},
	} {
		loop := nestLoop(in.inner, in.primary)
		root, oracle := plan.Node(loop), filter(nestLoop(in.inner, nil), in.primary)
		if in.over != nil {
			root, oracle = filter(root, in.over), filter(oracle, in.over)
		}
		for _, bound := range []int{0, 1, 4, 64} {
			env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(true, bound), BatchSize: 1, Transfer: in.over != nil}
			env.begin()
			m := newSweepMemo(env, loop)
			if (m != nil) != (bound == 0) {
				t.Fatalf("%s bound=%d: sweep memo %v, want one exactly when unbounded", in.name, bound, m != nil)
			}
			if in.name == "memo.w" && m != nil && len(m.slots) != joinTableMinSlots {
				t.Fatalf("memo.w: the memo starts with %d slots; the test wants it to grow mid-sweep", len(m.slots))
			}
			want, wantStats := drainSnapshot(t, env, oracle)
			if len(want) == 0 || bound == 0 && wantStats.CacheHits == 0 {
				t.Fatalf("%s bound=%d: oracle kept %d rows with %d cache hits", in.name, bound, len(want), wantStats.CacheHits)
			}
			for _, p := range []int{1, 4} {
				for _, bs := range []int{1, 7, 256} {
					name := fmt.Sprintf("%s bound=%d P=%d BS=%d", in.name, bound, p, bs)
					env.Parallelism, env.BatchSize = p, bs
					rows, stats := drainSnapshot(t, env, root)
					env.Parallelism, env.BatchSize = 1, 1
					if taped := env.loops[loop].tape != nil; taped != in.taped {
						t.Fatalf("%s: Build has the loop replay its inner: %v, want %v", name, taped, in.taped)
					}
					if kinds := gateKinds(env.gates[plan.Base(in.inner)]); in.over != nil && bound == 0 &&
						(kinds != "probe test" || stats.Transfer == nil || stats.Transfer.Pruned == 0) {
						t.Fatalf("%s: the inner scan runs %q and transfer prunes %+v", name, kinds, stats.Transfer)
					}
					sameRows(t, name, rows, want)
					for fn, n := range wantStats.Invocations {
						if got := stats.Invocations[fn]; got != n {
							t.Fatalf("%s: %d invocations of %s, filter oracle %d", name, got, fn, n)
						}
					}
					if stats.CacheHits != wantStats.CacheHits || stats.CacheMisses != wantStats.CacheMisses ||
						stats.CacheEntries != wantStats.CacheEntries {
						t.Fatalf("%s: cache hits/misses/entries %d/%d/%d, filter oracle %d/%d/%d", name,
							stats.CacheHits, stats.CacheMisses, stats.CacheEntries,
							wantStats.CacheHits, wantStats.CacheMisses, wantStats.CacheEntries)
					}
				}
			}
			if bound != 0 {
				continue
			}
			for _, p := range []int{1, 3} {
				for _, bs := range []int{1, 7, 256} {
					for _, profile := range []bool{false, true} {
						name := fmt.Sprintf("%s withheld P=%d BS=%d profile=%v", in.name, p, bs, profile)
						env.Parallelism, env.BatchSize, env.Profile = p, bs, profile
						withheld := runGates(t, name, env, root, buildWithheld)
						got := runGates(t, name, env, root, Build)
						sameAsWithheld(t, name, root, got, withheld, true)
					}
				}
			}
		}
	}
}

// gateKinds names the gates of list in order.
func gateKinds(list []recordGate) string {
	var kinds []string
	for _, g := range list {
		kinds = append(kinds, strings.TrimSuffix(strings.TrimPrefix(fmt.Sprintf("%T", g), "*exec."), "Gate"))
	}
	return strings.Join(kinds, " ")
}

// sweepMemoTable adds table memo to db: 400 rows of an int column k cycling
// through NULL, 0, math.MinInt64, math.MaxInt64 and keys that share one home
// slot in the memo (collidingKeys), a bool column b cycling through NULL,
// false and true, and a column w of 400 distinct values whose statistics are
// left unknown, so the memo over it starts at its smallest table.
func sweepMemoTable(t *testing.T, db *datagen.DB) {
	t.Helper()
	cols := []catalog.Column{{Name: "k", Type: expr.TInt}, {Name: "b", Type: expr.TBool}, {Name: "w", Type: expr.TInt}}
	codec, err := catalog.NewRowCodec(cols)
	if err != nil {
		t.Fatal(err)
	}
	tab := &catalog.Table{Name: "memo", Columns: cols, Codec: codec, TupleBytes: codec.Width(), Heap: storage.NewHeapFile(db.Pool)}
	keys := append([]expr.Value{expr.Null, expr.I(math.MinInt64), expr.I(math.MaxInt64)}, collidingKeys(12)...)
	for i := 0; i < 400; i++ {
		b := expr.Null
		if i%3 > 0 {
			b = expr.B(i%3 == 2)
		}
		rec, err := codec.Encode(expr.Row{keys[i%len(keys)], b, expr.I(int64(i * 7919))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	tab.Card = 400
	if err := db.Cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
}

// collidingKeys returns n keys, 0 first, that fibHash sends to one home slot
// in every table: j times the inverse of fibMul, whose products with fibMul
// are j.
func collidingKeys(n int) []expr.Value {
	inv := uint64(fibMul) // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - fibMul*inv
	}
	keys := make([]expr.Value, n)
	for j := range keys {
		keys[j] = expr.I(int64(uint64(j) * inv))
	}
	return keys
}

// TestSweepMemoTable holds the memo's numbering of inner values to a map,
// met twice over: keys sharing one home slot (collidingKeys), math.MinInt64
// and math.MaxInt64, 0 and NULL kept apart, each key numbered once, in the
// order met, and every number kept through the table's growth. And its
// outer halves: equal ones share a verdict vector, and NULL, 0, false and
// the same values in other columns are apart.
func TestSweepMemoTable(t *testing.T) {
	keys := append([]expr.Value{expr.Null, expr.I(math.MinInt64), expr.I(math.MaxInt64)}, collidingKeys(60)...)
	m := &sweepMemo{ids: map[string]int32{}, outer: []int{0, 1}}
	m.resize(joinTableMinSlots)
	for _, k := range keys[3:] {
		if fibHash(k.I, m.shift) != fibHash(0, m.shift) {
			t.Fatalf("key %d's home slot is not 0's", k.I)
		}
	}
	for round := 0; round < 2; round++ {
		for i, k := range keys {
			if got := m.number(k); got != int32(i) {
				t.Fatalf("round %d: %v numbered %d, want %d", round, k, got, i)
			}
			for j, k := range keys[:i] {
				if got := m.number(k); got != int32(j) {
					t.Fatalf("round %d, %d keys in: %v numbered %d, want %d", round, i+1, k, got, j)
				}
			}
		}
	}
	if int(m.vals) != len(keys) || len(m.slots) == joinTableMinSlots {
		t.Fatalf("%d keys numbered %d times in a table of %d slots", len(keys), m.vals, len(m.slots))
	}
	for i, outer := range []expr.Row{
		{expr.Null, expr.I(0)}, {expr.I(0), expr.Null}, {expr.I(0), expr.I(0)}, {expr.B(false), expr.I(0)},
		{expr.I(0), expr.I(0)}, {expr.Null, expr.I(0)}, {expr.I(0), expr.B(false)},
	} {
		m.bind(outer)
		if want := []int32{0, 1, 2, 3, 2, 0, 4}[i]; m.cur != want {
			t.Fatalf("outer half %v bound to vector %d, want %d", outer, m.cur, want)
		}
	}
}

// TestNLReplayMatchesRescan holds a nested loop that reads its inner heap
// scan once and walks it (sweepTape) to the same plan with the tape
// withheld (buildRescan), where every sweep rebuilds the inner and reads it
// again: the rows (in order when serial), the bits of the charged cost,
// invocations, cache hits and misses and every node's actual= must be
// equal, with profiling off and on, at BatchSize {1, 7, 256} × Parallelism
// {1, 3}. The inners: t7 under a cached expensive primary whose outer
// argument repeats (t1.u20) and one whose outer argument never does
// (t1.ua1), the same uncached and cached in a table bounded to 64 entries
// (the per-row protocol, no memo; over the index scan, as eviction depends
// on the order of the outer rows), a cross product, t7 under two cheap
// filters the scan absorbs, t7 under a transfer probe (from t1.u100 =
// t7.u100 over the loop) and an absorbed filter, and the memo table
// (sweepMemoTable), whose int column holds NULL, 0, the int64 extremes and
// colliding keys and whose bool column NULL, false and true. Two loops have
// outers of their own: 15 memo rows, whose NULLs and extremes are the outer
// argument, and the cross product of 10 t1 rows with 3 memo rows, whose
// primary takes one argument from each of t1 and memo. A loop under a
// subquery primary (in_t1, which reads t1 as it evaluates) keeps the rescan
// (planLoops) and runs as the withheld plan does. Each runs over a
// roomy pool and over a 6-page one, smaller than t7, so every sweep misses
// every page and a walk that fetched other pages, or none, would charge
// otherwise; there the cross product also runs under budgets
// (testNLReplayBudget). Over the roomy pool the outer is a heap scan, split
// by an exchange at Parallelism 3; over the tight one an index scan, so the
// pool sees one order of pages.
func TestNLReplayMatchesRescan(t *testing.T) {
	for _, pool := range []int{6, 0} {
		db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: []int{1, 7}, PoolPages: pool})
		if err != nil {
			t.Fatal(err)
		}
		sweepMemoTable(t, db)
		f, err := db.Cat.Func("costly10join")
		if err != nil {
			t.Fatal(err)
		}
		f2, f3 := expr.NewCostly("costly10pair", 2, 10, 0.3, 77), expr.NewCostly("costly10triple", 3, 10, 0.3, 78)
		t1, err := db.Cat.Table("t1")
		if err != nil {
			t.Fatal(err)
		}
		// in_t1(x, c) is x IN (SELECT t1.u20 FROM t1 WHERE t1.ua1 < c): it
		// reads t1 through the query's tracker, between the inner's batches.
		in := &expr.FuncDef{Name: "in_t1", Arity: 2, Cost: float64(t1.Pages()), Selectivity: 0.5, Cacheable: true, RealWork: true,
			EvalIO: func(tr *storage.IOTracker, v []expr.Value) (expr.Value, error) {
				return t1.In(tr, v[0], []catalog.ColTest{{Col: t1.ColIndex("ua1"), Op: expr.OpLT, Val: v[1]}}, t1.ColIndex("u20"), false)
			}}
		for _, f := range []*expr.FuncDef{f2, f3, in} {
			if err := db.Cat.RegisterFunc(f); err != nil {
				t.Fatal(err)
			}
		}
		col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
		cmp := func(tab, c string, op expr.CmpOp, v int64) *query.Predicate {
			return &query.Predicate{Kind: query.KindSelCmp, Op: op, Left: col(tab, c), Value: expr.I(v)}
		}
		q, err := query.NewQuery([]string{"t1", "t7", "memo"}, []*query.Predicate{
			{Kind: query.KindFunc, Func: f, Args: []query.ColRef{col("t1", "u20"), col("t7", "u20")}},
			cmp("t1", "ua1", expr.OpLT, 30),
			cmp("t7", "ua1", expr.OpLT, 900),
			cmp("t7", "u100", expr.OpGE, 3),
			{Kind: query.KindJoinCmp, Op: expr.OpEQ, Left: col("t1", "u100"), Right: col("t7", "u100")},
			cmp("t7", "ua1", expr.OpLT, 40),
			{Kind: query.KindFunc, Func: f, Args: []query.ColRef{col("t1", "ua1"), col("t7", "u20")}},
			{Kind: query.KindFunc, Func: f2, Args: []query.ColRef{col("memo", "k"), col("t7", "u20")}},
			{Kind: query.KindFunc, Func: f2, Args: []query.ColRef{col("t1", "u20"), col("memo", "k")}},
			{Kind: query.KindFunc, Func: f2, Args: []query.ColRef{col("t1", "u20"), col("memo", "b")}},
			{Kind: query.KindFunc, Func: f3, Args: []query.ColRef{col("t1", "u20"), col("memo", "b"), col("t7", "u20")}},
			cmp("memo", "w", expr.OpLT, 15*7919),
			cmp("memo", "w", expr.OpLT, 3*7919),
			{Kind: query.KindFunc, Func: in, Args: []query.ColRef{col("t7", "u20"), col("t1", "ua1")}},
		})
		if err != nil {
			t.Fatal(err)
		}
		query.Analyze(db.Cat, q)
		var outer plan.Node = &plan.Filter{Input: scanNode(t, db.Cat, "t1"), Pred: q.Preds[1]}
		lo, hi := expr.I(0), expr.I(59)
		index := &plan.IndexScan{Table: "t1", Col: "a1", Lo: &lo, Hi: &hi, ColRefs: scanNode(t, db.Cat, "t1").ColRefs}
		if pool != 0 {
			outer = index
		}
		filter := func(in plan.Node, p *query.Predicate) plan.Node { return &plan.Filter{Input: in, Pred: p} }
		t7 := func() plan.Node { return scanNode(t, db.Cat, "t7") }
		if pool != 0 {
			testNLReplayBudget(t, db, outer, t7())
		}
		memo := func() plan.Node { return scanNode(t, db.Cat, "memo") }
		memoOuter := filter(memo(), q.Preds[11])
		few := expr.I(9)
		fewT1 := &plan.IndexScan{Table: "t1", Col: "a1", Lo: &lo, Hi: &few, ColRefs: index.ColRefs}
		twoTables := &plan.Join{Method: plan.NestLoop, Outer: fewT1, Inner: filter(memo(), q.Preds[12])}
		twoTables.ColRefs = plan.ConcatCols(fewT1, twoTables.Inner)
		for _, sh := range []struct {
			name     string
			outer    plan.Node // nil: the pool's outer
			inner    plan.Node
			primary  *query.Predicate
			caching  bool
			bound    int              // the cache table's entries, 0 unbounded
			over     *query.Predicate // a filter over the loop, with transfer on
			wantKind string           // the inner scan's gates
		}{
			{"cross", nil, filter(t7(), q.Preds[5]), nil, false, 0, nil, "test"},
			{"cached", nil, t7(), q.Preds[0], true, 0, nil, ""},
			{"uncached", nil, t7(), q.Preds[0], false, 0, nil, ""},
			{"absorbed", nil, filter(filter(t7(), q.Preds[2]), q.Preds[3]), q.Preds[0], true, 0, nil, "test test"},
			{"probe", nil, filter(t7(), q.Preds[2]), q.Preds[0], true, 0, q.Preds[4], "probe test"},
			{"cached-unique-outer", nil, t7(), q.Preds[6], true, 0, nil, ""},
			{"bounded", index, t7(), q.Preds[0], true, 64, nil, ""}, // FIFO eviction: outer rows in one order
			{"null-outer", memoOuter, t7(), q.Preds[7], true, 0, nil, ""},
			{"null-inner", nil, memo(), q.Preds[8], true, 0, nil, ""},
			{"bool-inner", nil, memo(), q.Preds[9], true, 0, nil, ""},
			{"two-outer-tables", twoTables, t7(), q.Preds[10], true, 0, nil, ""},
			{"subquery", nil, t7(), q.Preds[13], true, 0, nil, ""},
		} {
			outer := outer
			if sh.outer != nil {
				outer = sh.outer
			}
			loop := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: sh.inner, Primary: sh.primary,
				ExpensivePrimary: sh.primary != nil, ColRefs: plan.ConcatCols(outer, sh.inner)}
			root := plan.Node(loop)
			if sh.over != nil {
				root = filter(root, sh.over)
			}
			for _, p := range []int{1, 3} {
				for _, bs := range []int{1, 7, 256} {
					for _, profile := range []bool{false, true} {
						name := fmt.Sprintf("%s pool=%d P=%d BS=%d profile=%v", sh.name, pool, p, bs, profile)
						env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(sh.caching, sh.bound),
							Parallelism: p, BatchSize: bs, Profile: profile, Transfer: sh.over != nil}
						want := runGates(t, name, env, root, buildRescan)
						got := runGates(t, name, env, root, Build)
						if taped := env.loops[loop].tape != nil; taped != (sh.primary == nil || sh.primary.Func.EvalIO == nil) {
							t.Fatalf("%s: Build has the loop tape its inner: %v", name, taped)
						}
						if memo := env.loops[loop].memo != nil; memo != (sh.caching && sh.bound == 0) {
							t.Fatalf("%s: the loop has a memo: %v", name, memo)
						}
						if kinds := gateKinds(env.gates[plan.Base(sh.inner)]); kinds != sh.wantKind {
							t.Fatalf("%s: the inner scan runs gates %q, want %q", name, kinds, sh.wantKind)
						}
						sameAsWithheld(t, name, root, got, want, p == 1)
						if len(got.Rows) == 0 || sh.caching && got.Stats.CacheHits == 0 {
							t.Fatalf("%s: %d rows, %d cache hits", name, len(got.Rows), got.Stats.CacheHits)
						}
						tab, err := db.Cat.Table(plan.Base(sh.inner).(*plan.SeqScan).Table)
						if err != nil {
							t.Fatal(err)
						}
						if pages := int64(tab.Heap.NumPages()); profile && pool != 0 && pages > 6 {
							if sweeps := profiles(root, got.Profile)[outer].ActRows; got.Stats.IO.Total() < sweeps*pages {
								t.Fatalf("%s: %d reads over %d sweeps of %d pages: the sweeps do not miss", name, got.Stats.IO.Total(), sweeps, pages)
							}
						}
						if profile {
							_, inv, hits, misses := got.Profile.Totals()
							var calls int64
							for _, n := range got.Stats.Invocations {
								calls += n
							}
							if inv != calls || hits != got.Stats.CacheHits || misses != got.Stats.CacheMisses {
								t.Fatalf("%s: the profile counts %d invocations, %d/%d cache hits/misses; the run %d, %d/%d",
									name, inv, hits, misses, calls, got.Stats.CacheHits, got.Stats.CacheMisses)
							}
						}
					}
				}
			}
		}
	}
}

// TestNLTapesFewSweeps holds planLoops to taping a bare inner however few
// sweeps the plan expects: over an outer estimated at one row, and over one
// not estimated, the loop replays its inner and runs as the rescan does.
func TestNLTapesFewSweeps(t *testing.T) {
	db, env := newEnv(t, []int{3, 7}, true)
	f, err := db.Cat.Func("costly10join")
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewQuery([]string{"t3", "t7"}, []*query.Predicate{
		{Kind: query.KindSelCmp, Op: expr.OpLT, Left: query.ColRef{Table: "t3", Col: "ua1"}, Value: expr.I(2)},
		{Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t3", Col: "u20"}, {Table: "t7", Col: "u20"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(db.Cat, q)
	for _, est := range []float64{1, 0} {
		outer := &plan.Filter{Input: scanNode(t, db.Cat, "t3"), Pred: q.Preds[0], EstCard: est}
		inner := scanNode(t, db.Cat, "t7")
		loop := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner, Primary: q.Preds[1],
			ExpensivePrimary: true, ColRefs: plan.ConcatCols(outer, inner)}
		name := fmt.Sprintf("outer estimated at %v", est)
		want := runGates(t, name, env, loop, buildRescan)
		got := runGates(t, name, env, loop, Build)
		if env.loops[loop].tape == nil {
			t.Fatalf("%s: the loop does not replay its inner", name)
		}
		sameAsWithheld(t, name, loop, got, want, true)
	}
}

// testNLReplayBudget runs the cross product of outer and inner, a bare heap
// scan that misses the pool on every sweep, under budgets one read apart
// across more than a sweep's reads. Every run stops, as the rescanned one
// does, within two reads of the budget — the read that crosses it, and an
// outer index scan's leaf read before its next check (DESIGN.md §13) —
// having made a prefix of the full run's rows.
func testNLReplayBudget(t *testing.T, db *datagen.DB, outer, inner plan.Node) {
	t.Helper()
	root := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner, ColRefs: plan.ConcatCols(outer, inner)}
	newEnv := func(budget float64) *Env {
		return &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0), BatchSize: 1, Budget: budget}
	}
	full := runGates(t, "cross", newEnv(0), root, Build)
	for budget := 60.0; budget < 90; budget++ {
		for _, build := range []struct {
			name string
			fn   func(*Env, plan.Node) (Iterator, error)
		}{{"walk", Build}, {"rescan", buildRescan}} {
			name := fmt.Sprintf("cross %s budget=%v", build.name, budget)
			got := runGates(t, name, newEnv(budget), root, build.fn)
			if over := got.Stats.Charged() - budget; !got.DNF || over > 2 {
				t.Fatalf("%s: DNF %v with %v charged: the loop did not stop within two reads", name, got.DNF, got.Stats.Charged())
			}
			if len(got.Rows) > len(full.Rows) {
				t.Fatalf("%s: %d rows, the full run %d", name, len(got.Rows), len(full.Rows))
			}
			sameRows(t, name, got.Rows, full.Rows[:len(got.Rows)])
		}
	}
}

// TestProbedScanBudget runs, with transfer on, plans whose inner scan of t7
// probes a Bloom filter (from t1.u100 = t7.u100) before the cheap test it
// absorbed — a hash join of an index scan of t1 and that scan, and their
// nested loop under the join's filter, walking its taped inner and
// rescanning it — over a 6-page pool that t7 misses every sweep, at
// BatchSize {1, 7, 256} under each budget of the 200 past the prepass's
// charge (the loop's first ten sweeps) and the 12 below the run's own. Each
// run must end within 3.4 of its budget (DESIGN.md §13): what is left of the
// charge that crossed it (a read, or a batch's probe or spill flush) and the
// index scan's leaf read and heap fetch before its next check — the worst
// this sweep reads is 3.37, for the hash join — and a run that completes
// must not have charged past its budget.
func TestProbedScanBudget(t *testing.T) {
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: []int{1, 7}, PoolPages: 6})
	if err != nil {
		t.Fatal(err)
	}
	col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
	q, err := query.NewQuery([]string{"t1", "t7"}, []*query.Predicate{
		{Kind: query.KindSelCmp, Op: expr.OpLT, Left: col("t7", "ua1"), Value: expr.I(900)},
		{Kind: query.KindJoinCmp, Op: expr.OpEQ, Left: col("t1", "u100"), Right: col("t7", "u100")},
	})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(db.Cat, q)
	lo, hi := expr.I(0), expr.I(59)
	outer := &plan.IndexScan{Table: "t1", Col: "a1", Lo: &lo, Hi: &hi, ColRefs: scanNode(t, db.Cat, "t1").ColRefs}
	inner := &plan.Filter{Input: scanNode(t, db.Cat, "t7"), Pred: q.Preds[0]}
	key := q.Preds[1]
	loop := &plan.Filter{Input: &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner, ColRefs: plan.ConcatCols(outer, inner)}, Pred: key}
	hash := &plan.Join{Method: plan.HashJoin, Outer: outer, Inner: inner, Primary: key, ColRefs: plan.ConcatCols(outer, inner)}
	const limit = 3.4
	for _, sh := range []struct {
		name  string
		root  plan.Node
		build func(*Env, plan.Node) (Iterator, error)
	}{
		{"hash", hash, Build},
		{"loop", loop, Build},
		{"loop rescan", loop, buildRescan},
	} {
		worst := 0.0
		for _, bs := range []int{1, 7, 256} {
			env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0), BatchSize: bs, Transfer: true}
			full := runGates(t, sh.name, env, sh.root, sh.build)
			first, end := math.Ceil(full.Stats.Transfer.PrepassCharged), full.Stats.Charged()
			for budget := first; budget < end; budget++ {
				if budget == first+200 && budget < end-12 {
					budget = math.Floor(end - 12)
				}
				name := fmt.Sprintf("%s BS=%d budget=%v", sh.name, bs, budget)
				env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0), BatchSize: bs, Transfer: true, Budget: budget}
				got := runGates(t, name, env, sh.root, sh.build)
				over := got.Stats.Charged() - budget
				if over > limit || !got.DNF && over > 0 {
					t.Fatalf("%s: %v charged (DNF %v), %v over the budget", name, got.Stats.Charged(), got.DNF, over)
				}
				worst = max(worst, over)
			}
		}
		t.Logf("%s: at most %v reads past the budget", sh.name, worst)
	}
}
