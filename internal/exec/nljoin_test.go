package exec

import (
	"fmt"
	"testing"

	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
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
// shape of rescanned inner subtree — a scan and a filter chain over one
// decoding late for the primary — and with a cheap theta primary, across the
// executor grid, with caching on and off. Every configuration must reproduce
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
	col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
	below := func(tab string, v int64) *query.Predicate {
		return &query.Predicate{Kind: query.KindSelCmp, Op: expr.OpLT, Left: col(tab, "ua1"), Value: expr.I(v)}
	}
	q, err := query.NewQuery([]string{"t1", "t2", "t3"}, []*query.Predicate{
		below("t1", 30), below("t2", 300), below("t2", 200), below("t3", 2),
		{Kind: query.KindJoinCmp, Op: expr.OpEQ, Left: col("t2", "ua1"), Right: col("t3", "ua1")},
		{Kind: query.KindFunc, Func: f, Args: []query.ColRef{col("t1", "u10"), col("t2", "u10")}},
		{Kind: query.KindJoinCmp, Op: expr.OpGT, Left: col("t1", "ua1"), Right: col("t2", "ua1")},
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
	// thin is what decodes late (thinSummary): the inner scan, on the
	// primary's inner columns — its cheap filters it tests on the record —, or
	// a hash join's probe.
	inners := []struct {
		name    string
		node    plan.Node
		primary *query.Predicate
		thin    string
	}{
		{"scan", scan("t2"), q.Preds[5], "t2:u10"},
		{"filter", filter(scan("t2"), q.Preds[1]), q.Preds[5], "t2:u10"},
		{"thin-inner", filter(filter(scan("t2"), q.Preds[1]), q.Preds[2]), q.Preds[5], "t2:u10"},
		{"cheap-primary", filter(scan("t2"), q.Preds[1]), q.Preds[6], "t2:ua1"},
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
