package exec

import (
	"errors"
	"testing"

	"predplace/internal/catalog"
	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/optimizer"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/sqlparse"
)

// The paper's figure queries (internal/harness/queries.go, which this
// package cannot import: the harness sits above the facade).
const (
	sqlQuery1 = `SELECT * FROM t3, t9 WHERE t3.ua1 = t9.ua1 AND costly100(t9.u20)`
	sqlQuery2 = `SELECT * FROM t10, t9 WHERE t10.ua1 = t9.ua1 AND costly100(t9.u20)`
	sqlQuery3 = `SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10 AND costly100(t3.ua1)`
	sqlQuery4 = `SELECT * FROM t3, t10, t1
WHERE t3.ua1 = t10.ua1 AND t10.ua1 = t1.ua1 AND costly100(t3.u20)`
	sqlQuery5 = `SELECT * FROM t3, t6, t7, t10
WHERE t3.ua1 = t10.ua1 AND t6.a1 = t10.a10
AND costly10join(t3.u20, t7.u20) AND selective100(t3.u10)`
	sqlFig1 = `SELECT * FROM t1, t10
WHERE t1.ua1 = t10.u10 AND costly1(t1.u100) AND costly1(t10.u100)`
)

// figuresDB builds the benchmark database at the given scale with Query 5's
// selective100 registered, as the harness does.
func figuresDB(t testing.TB, scale float64) *datagen.DB {
	t.Helper()
	db, err := datagen.Build(datagen.Config{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Cat.RegisterFunc(&expr.FuncDef{Name: "selective100", Arity: 1, Cost: 100,
		Selectivity: 0.1, Cacheable: true, Eval: expr.BoolStub(0.1, 424242)}); err != nil {
		t.Fatal(err)
	}
	return db
}

// planSQL parses, binds and plans one statement the way the facade does.
func planSQL(t testing.TB, cat *catalog.Catalog, sql string, opts optimizer.Options) plan.Node {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := (&sqlparse.Binder{Cat: cat}).Bind(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if bound.OrderBy != nil && bound.Limit > 0 {
		opts.TopK = &optimizer.TopKSpec{Key: bound.OrderBy, Desc: bound.Desc, K: bound.Limit}
	}
	root, _, err := optimizer.New(cat, opts).Plan(bound.Query)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// benchRun executes root b.N times on a fresh Env over db, reporting the
// bytes of result rows as throughput.
func benchRun(b *testing.B, db *datagen.DB, root plan.Node) {
	env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0)}
	res, err := Run(env, root)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(res.Rows)) * int64(len(res.Cols)) * 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(env, root)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(res.Rows)
	}
}

// BenchmarkSeqScanBatch drains a scan the way a join's input does: rows
// carved from the query's pool and given back at the end, so in steady state
// rowAlloc.next allocates nothing (t10 at the benchmark's scale, 100-byte
// tuples).
func BenchmarkSeqScanBatch(b *testing.B) {
	db, err := datagen.Build(datagen.Config{Scale: 0.3, Tables: []int{10}})
	if err != nil {
		b.Fatal(err)
	}
	env := &Env{Cat: db.Cat, Pool: db.Pool}
	node := scanNode(b, db.Cat, "t10")
	tab, _ := db.Cat.Table("t10")
	b.SetBytes(tab.Card * int64(tab.Codec.Width()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.begin()
		it, err := buildIn(env, node, &env.slabs)
		if err != nil {
			b.Fatal(err)
		}
		_, n, err := collect(env, it, 0, false)
		if err := errors.Join(err, it.Close()); err != nil || int64(n) != tab.Card {
			b.Fatal(n, err)
		}
		env.slabs.release()
	}
}

// BenchmarkHashJoinProbe is Query 3 without its filter: a 30 000-row build,
// 9 000 probes, ten matches each, every output row a fresh concat.
func BenchmarkHashJoinProbe(b *testing.B) {
	db, err := datagen.Build(datagen.Config{Scale: 0.3, Tables: []int{3, 10}})
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, db, planSQL(b, db.Cat, `SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10`,
		optimizer.Options{Algorithm: optimizer.PushDown}))
}

// BenchmarkQuery3 is one figures_scan statement end to end at the
// benchmark's scale: two scans, a costly filter, a many-to-many hash join.
func BenchmarkQuery3(b *testing.B) {
	db := figuresDB(b, 0.3)
	benchRun(b, db, planSQL(b, db.Cat, sqlQuery3, optimizer.Options{Algorithm: optimizer.Migration}))
}

// BenchmarkFigures is the figures_scan round: Queries 1-4 under Migration.
func BenchmarkFigures(b *testing.B) {
	db := figuresDB(b, 0.3)
	for _, q := range []struct{ name, sql string }{
		{"query1", sqlQuery1}, {"query2", sqlQuery2}, {"query3", sqlQuery3}, {"query4", sqlQuery4},
	} {
		root := planSQL(b, db.Cat, q.sql, optimizer.Options{Algorithm: optimizer.Migration})
		b.Run(q.name, func(b *testing.B) { benchRun(b, db, root) })
	}
}
