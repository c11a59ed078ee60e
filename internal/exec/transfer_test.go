package exec

import (
	"testing"

	"predplace/internal/catalog"
	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

// prepassCounts is what a transfer prepass counts: Bloom probes and adds,
// records pruned, invocations of its expensive predicates, filters built and
// the keys added to them.
type prepassCounts struct {
	probes, adds, pruned, invocations int64
	built                             int
	buildRows                         int64
}

// TestTransferPrepassCounts holds the transfer prepass to a reference kept
// here, which reads each table record by record: a record faces the table's
// cheap comparisons first, then has every class key checked for NULL, then
// probes the class filters built so far in slot order, stopping at the first
// that drops it (each drop one pruned record), then faces the cached
// expensive predicate (an invocation per argument the cache has not met),
// and its keys go into the rebuilt filters. Three tables, pa ⋈ pb on k and
// pb ⋈ pc on j, so pb is in both classes; pa and pc have cheap comparisons,
// pa a cached costly10, and every key column NULLs. The reference checks that
// a cheap comparison and a NULL key each drop records of a table that has a
// filter to probe, so putting either after the probes changes the counts.
func TestTransferPrepassCounts(t *testing.T) {
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	// null returns v, or NULL every nth row.
	null := func(i, n int, v int64) expr.Value {
		if i%n == 0 {
			return expr.Null
		}
		return expr.I(v)
	}
	addTable(t, db, "pa", []string{"k", "x", "u"}, 120, func(i int) expr.Row {
		return expr.Row{null(i, 7, int64(i%40)), expr.I(int64(i % 10)), expr.I(int64(i % 13))}
	})
	addTable(t, db, "pb", []string{"k", "j", "z"}, 200, func(i int) expr.Row {
		return expr.Row{null(i, 11, int64(i%60)), null(i, 5, int64(i%30)), expr.I(int64(i))}
	})
	addTable(t, db, "pc", []string{"j", "y"}, 90, func(i int) expr.Row {
		return expr.Row{null(i, 9, int64(i%45)), expr.I(int64(i % 6))}
	})
	f, err := db.Cat.Func("costly10")
	if err != nil {
		t.Fatal(err)
	}
	col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
	preds := []*query.Predicate{
		{Kind: query.KindJoinCmp, Op: expr.OpEQ, Left: col("pa", "k"), Right: col("pb", "k"), Selectivity: 0.02},
		{Kind: query.KindJoinCmp, Op: expr.OpEQ, Left: col("pb", "j"), Right: col("pc", "j"), Selectivity: 0.03},
		{Kind: query.KindSelCmp, Op: expr.OpLT, Left: col("pa", "x"), Value: expr.I(7), Selectivity: 0.7},
		{Kind: query.KindSelCmp, Op: expr.OpGE, Left: col("pc", "y"), Value: expr.I(2), Selectivity: 0.6},
		{Kind: query.KindFunc, Func: f, Args: []query.ColRef{col("pa", "u")}, Selectivity: 0.5},
	}
	if _, err := query.NewQuery([]string{"pa", "pb", "pc"}, preds); err != nil {
		t.Fatal(err)
	}
	filter := func(in plan.Node, p *query.Predicate) plan.Node { return &plan.Filter{Input: in, Pred: p} }
	pa := filter(filter(scanNode(t, db.Cat, "pa"), preds[2]), preds[4])
	ab := &plan.Join{Method: plan.HashJoin, Outer: pa, Inner: scanNode(t, db.Cat, "pb"), Primary: preds[0]}
	root := &plan.Join{Method: plan.HashJoin, Outer: ab, Inner: filter(scanNode(t, db.Cat, "pc"), preds[3]), Primary: preds[1]}

	env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(true, 0)}
	env.begin()
	if err := env.runTransferPrepass(root); err != nil {
		t.Fatal(err)
	}
	ts := env.transfer
	got := prepassCounts{env.bloomProbes.Load(), env.bloomAdds.Load(), ts.pruned.Load(), env.funcCount(f).Load(), ts.filtersBuilt, ts.buildRows}
	want := referencePrepass(t, &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(true, 0)}, root, f)
	if got != want {
		t.Fatalf("the prepass counts %+v, the reference %+v", got, want)
	}
	if want.pruned == 0 || want.invocations == 0 {
		t.Fatalf("the reference prunes %d records and invokes %d times: not the case under test", want.pruned, want.invocations)
	}
}

// addTable adds to db a table of int columns cols and n rows, row(i) the
// ith, with statistics left unknown.
func addTable(t *testing.T, db *datagen.DB, name string, cols []string, n int, row func(i int) expr.Row) {
	t.Helper()
	columns := make([]catalog.Column, len(cols))
	for i, c := range cols {
		columns[i] = catalog.Column{Name: c, Type: expr.TInt}
	}
	codec, err := catalog.NewRowCodec(columns)
	if err != nil {
		t.Fatal(err)
	}
	tab := &catalog.Table{Name: name, Columns: columns, Codec: codec, TupleBytes: codec.Width(), Heap: storage.NewHeapFile(db.Pool), Card: int64(n)}
	for i := 0; i < n; i++ {
		rec, err := codec.Encode(row(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Cat.AddTable(tab); err != nil {
		t.Fatal(err)
	}
}

// referencePrepass is the prepass of root read record by record, in the
// schedule newTransferState derives, with f the one expensive predicate's
// function. It fails t unless a cheap comparison and a NULL key each drop
// records of a table that has a filter to probe.
func referencePrepass(t *testing.T, e *Env, root plan.Node, f *expr.FuncDef) prepassCounts {
	t.Helper()
	e.begin()
	ts, err := newTransferState(e, root)
	if err != nil || ts == nil {
		t.Fatalf("no transfer schedule: %v", err)
	}
	var c prepassCounts
	var cheapDrops, nullDrops int
	verdicts := map[expr.Value]bool{} // the cache: f's verdict by argument
	scan := func(tt *transferTable) {
		builders := map[*transferClass]*bloomFilter{}
		probing := false
		for _, s := range tt.slots {
			if builders[s.class] == nil {
				builders[s.class] = newBloomFilter(int64(tt.est) + 1)
			}
			probing = probing || s.class.filter != nil
		}
		it := tt.tab.Heap.Scan()
		defer it.Close()
	records:
		for {
			rec, _, ok, err := it.NextRef()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			row, err := tt.tab.Codec.Decode(rec)
			if err != nil {
				t.Fatal(err)
			}
			for _, ct := range tt.cheap {
				if b, known := ct.Op.Apply(row[ct.Col], ct.Val).Bool(); !known || !b {
					if probing {
						cheapDrops++
					}
					continue records
				}
			}
			for _, s := range tt.slots {
				if row[s.colIdx].IsNull() {
					if probing {
						nullDrops++
					}
					continue records
				}
			}
			for _, s := range tt.slots {
				if s.class.filter == nil {
					continue
				}
				c.probes++
				if !s.class.filter.Test(bloomHash(row[s.colIdx])) {
					c.pruned++
					continue records
				}
			}
			for _, cp := range tt.costly {
				arg := row[cp.argIdx[0]]
				v, met := verdicts[arg]
				if !met {
					c.invocations++
					b, known := f.Eval([]expr.Value{arg}).Bool()
					v = known && b
					verdicts[arg] = v
				}
				if !v {
					continue records
				}
			}
			for _, s := range tt.slots {
				builders[s.class].Add(bloomHash(row[s.colIdx]))
				c.adds++
				c.buildRows++
			}
		}
		for si, s := range tt.slots {
			if b := builders[s.class]; b != nil {
				s.class.filter = b
				s.class.version++
				c.built++
				delete(builders, s.class)
			}
			tt.seen[si] = s.class.version
		}
	}
	for _, tt := range ts.order {
		scan(tt)
	}
	for i := len(ts.order) - 1; i >= 0; i-- {
		if ts.order[i].dirty() {
			scan(ts.order[i])
		}
	}
	if cheapDrops == 0 || nullDrops == 0 {
		t.Fatalf("with a filter to probe, cheap comparisons drop %d records and NULL keys %d: not the case under test", cheapDrops, nullDrops)
	}
	return c
}
