package exec

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"predplace/internal/catalog"
	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

// TestMergeJoinSideDrops holds a merge join whose second side's scan drops,
// on the record, every key the first side lacks to the same plan run with
// the gates withheld (buildWithheld: every merge join draining its outer
// first and dropping nothing) over mergeDropTables' keys: NULL, 0,
// math.MinInt64, math.MaxInt64, duplicates and keys sharing one home slot. At
// Parallelism {1, 3} × BatchSize {1, 7, 256}, Profile off and on, the two runs
// must agree in rows (in order when serial), the bits of the charged cost,
// invocations, cache hits and every node's actual=. Each shape states which side Build lets drain
// first and which scan drops, and a linked run must drop exactly the second
// side's rows whose key is NULL or missing from the first side.
func TestMergeJoinSideDrops(t *testing.T) {
	db, err := datagen.Build(datagen.Config{Scale: 0.01, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	mergeDropTables(t, db)
	costly, err := db.Cat.Func("costly1")
	if err != nil {
		t.Fatal(err)
	}
	col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
	scan := func(tab string, card float64) *plan.SeqScan {
		s := scanNode(t, db.Cat, tab)
		s.EstCard = card
		return s
	}
	cmp := func(in plan.Node, c query.ColRef, op expr.CmpOp, v int64) plan.Node {
		return &plan.Filter{Input: in, Pred: &query.Predicate{Kind: query.KindSelCmp, Op: op, Left: c, Value: expr.I(v)}, EstCard: in.Card()}
	}
	merge := func(outer, inner plan.Node, l, r query.ColRef) *plan.Join {
		return &plan.Join{Method: plan.MergeJoin, Outer: outer, Inner: inner, SortOuter: true, SortInner: true,
			Primary: &query.Predicate{Kind: query.KindJoinCmp, Op: expr.OpEQ, Left: l, Right: r},
			ColRefs: plan.ConcatCols(outer, inner), EstCard: 100}
	}
	lk, rk := col("mkl", "k"), col("mkr", "k")
	type link struct {
		join       *plan.Join
		innerFirst bool
		scan       *plan.SeqScan // nil: the join drains as it always did
	}
	type shape struct {
		name     string
		root     plan.Node
		transfer bool
		links    []link
	}
	var shapes []shape
	{ // the inner is the larger: it drains second and drops
		l, r := scan("mkl", 300), scan("mkr", 500)
		j := merge(l, r, lk, rk)
		shapes = append(shapes, shape{name: "inner-drops", root: j, links: []link{{j, false, r}}})
	}
	{ // the inner is the smaller: it drains first and the outer drops
		r, l := scan("mkr", 500), scan("mkl", 300)
		j := merge(r, l, rk, lk)
		shapes = append(shapes, shape{name: "swap", root: j, links: []link{{j, true, r}}})
	}
	{ // as swap, under transfer: the prepass reads both tables first
		r, l := scan("mkr", 500), scan("mkl", 300)
		j := merge(r, l, rk, lk)
		shapes = append(shapes, shape{name: "swap-transfer", root: j, transfer: true, links: []link{{j, false, l}}})
	}
	{ // a string key is not linked
		j := merge(scan("mkl", 300), scan("mkr", 500), col("mkl", "s"), col("mkr", "s"))
		shapes = append(shapes, shape{name: "string-key", root: j, links: []link{{j, false, nil}}})
	}
	{ // an empty first side: every record of the second is dropped
		r := scan("mkr", 500)
		j := merge(scan("mke", 10), r, col("mke", "k"), rk)
		shapes = append(shapes, shape{name: "empty-first", root: j, links: []link{{j, false, r}}})
	}
	{ // the scans absorb their cheap filters and still drop
		r, l := scan("mkr", 500), scan("mkl", 300)
		outer := cmp(cmp(r, col("mkr", "v"), expr.OpLT, 450), col("mkr", "v"), expr.OpGE, 20)
		j := merge(outer, cmp(l, col("mkl", "v"), expr.OpGE, 10), rk, lk)
		shapes = append(shapes, shape{name: "absorbed-swap", root: j, links: []link{{j, true, r}}})
	}
	{ // an operator between the join and the scan: nothing is linked
		l, r := scan("mkl", 300), scan("mkr", 500)
		inner := &plan.Filter{Input: r, Pred: &query.Predicate{Kind: query.KindFunc, Func: costly, Args: []query.ColRef{col("mkr", "v")}}}
		j := merge(l, inner, lk, rk)
		shapes = append(shapes, shape{name: "filter-between", root: j, links: []link{{j, false, nil}}})
	}
	{ // mkl is read twice: neither join swaps; each second side drops
		r, l, l2 := scan("mkr", 500), scan("mkl", 300), scan("mkl", 300)
		lower := merge(r, l, rk, lk)
		upper := merge(lower, l2, rk, lk)
		shapes = append(shapes, shape{name: "nested", root: upper, links: []link{{lower, false, l}, {upper, false, l2}}})
	}
	for _, sh := range shapes {
		for _, p := range []int{1, 3} {
			for _, bs := range []int{1, 7, 256} {
				for _, profile := range []bool{false, true} {
					name := fmt.Sprintf("%s P=%d BS=%d profile=%v", sh.name, p, bs, profile)
					t.Run(name, func(t *testing.T) {
						env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0),
							Parallelism: p, BatchSize: bs, Profile: profile, Transfer: sh.transfer}
						want := runGates(t, name, env, sh.root, buildWithheld)
						got := runGates(t, name, env, sh.root, Build)
						for _, l := range sh.links {
							d := joinGate[*keyGate](env, l.join)
							switch {
							case l.scan == nil && d != nil:
								t.Fatalf("%s: %s has a key gate", name, l.join.Describe())
							case l.scan == nil:
								continue
							case d == nil || !slices.Contains(env.gates[l.scan], recordGate(d)) || d.innerFirst != l.innerFirst:
								t.Fatalf("%s: %s has key gate %+v, want the inner first %v and %s dropping", name,
									l.join.Describe(), d, l.innerFirst, l.scan.Describe())
							}
							if sh.transfer {
								continue // the prepass's filters prune first: what is left to drop is their false positives
							}
							first, second := l.join.Outer, l.join.Inner
							fi, si, err := joinKeyIdx(l.join.Primary, first, second)
							if err != nil {
								t.Fatal(err)
							}
							if l.innerFirst {
								first, second, fi, si = second, first, si, fi
							}
							wantDrops := sideDrops(t, db, first, second, fi, si)
							if got := d.dropped.Load(); got != wantDrops || wantDrops == 0 {
								t.Fatalf("%s: %s dropped %d records, want %d (and some)", name, l.scan.Describe(), got, wantDrops)
							}
						}
						sameAsWithheld(t, name, sh.root, got, want, p == 1)
					})
				}
			}
		}
	}
}

// runGates runs root as Run does, building it with build (Build, or Build
// with something withheld). It returns the rows, copied, the stats, whether
// the budget stopped the run and the profile.
func runGates(t *testing.T, name string, env *Env, root plan.Node, build func(*Env, plan.Node) (Iterator, error)) *Result {
	t.Helper()
	env.begin()
	defer env.slabs.release()
	if env.Transfer {
		if err := env.runTransferPrepass(root); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	it, err := build(env, root)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rows, n, err := collect(env, it, root.Card(), true)
	cerr := it.Close()
	if err == nil {
		err = env.stopped()
	}
	dnf := errors.Is(err, ErrBudgetExceeded)
	if dnf {
		err = nil
	}
	if err := errors.Join(err, cerr); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	kept := make([]expr.Row, len(rows))
	for i, r := range rows {
		kept[i] = slices.Clone(r)
	}
	res := &Result{Rows: kept, Stats: env.finish(n), DNF: dnf}
	if env.prof != nil {
		res.Profile = assembleProfile(env, root)
	}
	return res
}

// buildWithheld is Build with the gates withheld whose removal cannot move a
// count: no scan absorbs a filter (each runs as its own operator, which
// counts what its record test did), every merge join drains its outer first
// and drops nothing (each drop counted as the row it would have been), and
// every nested loop rebuilds its inner each sweep (buildRescan). Transfer
// probes are charged, so they stay.
func buildWithheld(env *Env, root plan.Node) (Iterator, error) {
	env.planScans(root)
	env.runs = nil
	withholdTapes(env)
	env.thin = env.thinScans(root) // the filters, now operators, and the rebuilt inners read their columns
	for n, list := range env.gates {
		var kept []recordGate
		for _, g := range list {
			if _, probe := g.(*probeGate); probe {
				kept = append(kept, g)
			}
		}
		env.gates[n] = kept
	}
	return env.buildRoot(root)
}

// buildRescan is Build with every nested loop's replay withheld: each
// rebuilds its inner and reads it again every sweep, the inner scan decoding
// late for the primary as any rescanned inner does.
func buildRescan(env *Env, root plan.Node) (Iterator, error) {
	env.planScans(root)
	withholdTapes(env)
	env.thin = env.thinScans(root)
	return env.buildRoot(root)
}

// withholdTapes has every nested loop Build planned rebuild its inner.
func withholdTapes(env *Env) {
	for j, lp := range env.loops {
		lp.tape = nil
		env.loops[j] = lp
	}
}

// sameAsWithheld fails unless got, a run of root with its gates, agrees with
// want, the run with them withheld (runGates): in rows (in order when
// ordered), the bits of the charged cost, invocations, cache hits and
// misses, whether the budget stopped it, and every node's actual=.
func sameAsWithheld(t *testing.T, name string, root plan.Node, got, want *Result, ordered bool) {
	t.Helper()
	if ordered {
		sameRows(t, name, got.Rows, want.Rows)
	} else {
		sameRowMultiset(t, got.Rows, want.Rows)
	}
	if g, w := got.Stats.Charged(), want.Stats.Charged(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: charged %v, withheld %v", name, g, w)
	}
	if g, w := got.Stats.Invocations, want.Stats.Invocations; !maps.Equal(g, w) {
		t.Fatalf("%s: invocations %v, withheld %v", name, g, w)
	}
	if g, w := got.Stats.CacheHits, want.Stats.CacheHits; g != w {
		t.Fatalf("%s: %d cache hits, withheld %d", name, g, w)
	}
	if g, w := got.Stats.CacheMisses, want.Stats.CacheMisses; g != w {
		t.Fatalf("%s: %d cache misses, withheld %d", name, g, w)
	}
	if got.DNF != want.DNF {
		t.Fatalf("%s: DNF %v, withheld %v", name, got.DNF, want.DNF)
	}
	sameActRows(t, name+" against withheld", got.Profile, want.Profile)
}

// sideDrops is how many rows of the second side, run on its own, have a key
// (column si) that is NULL or missing from the first side's (column fi).
func sideDrops(t *testing.T, db *datagen.DB, first, second plan.Node, fi, si int) int64 {
	t.Helper()
	run := func(n plan.Node) []expr.Row {
		res, err := Run(&Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0)}, n)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	keys := map[int64]bool{}
	for _, r := range run(first) {
		if !r[fi].IsNull() {
			keys[r[fi].I] = true
		}
	}
	var drops int64
	for _, r := range run(second) {
		if r[si].IsNull() || !keys[r[si].I] {
			drops++
		}
	}
	return drops
}

// mergeDropTables adds three tables of an int column k, a string column s and
// an int column v = row number to db: mkl (300 rows) and mkr (500) whose k
// cycle through NULL, 0, math.MinInt64, math.MaxInt64, keys sharing one home
// slot (collidingKeys) and small integers, each set only partly in the
// other's, and mke, empty.
func mergeDropTables(t *testing.T, db *datagen.DB) {
	t.Helper()
	colliding := collidingKeys(12)
	ints := func(lo, hi int64) []expr.Value {
		var out []expr.Value
		for k := lo; k < hi; k++ {
			out = append(out, expr.I(k))
		}
		return out
	}
	left := slices.Concat([]expr.Value{expr.Null, colliding[0], expr.I(math.MinInt64), expr.I(math.MaxInt64)}, colliding[1:8], ints(1, 50))
	right := slices.Concat([]expr.Value{expr.Null, expr.I(math.MaxInt64)}, colliding[4:12], ints(20, 80), colliding[:1])
	for _, tab := range []struct {
		name string
		keys []expr.Value
		rows int
	}{{"mkl", left, 300}, {"mkr", right, 500}, {"mke", nil, 0}} {
		cols := []catalog.Column{{Name: "k", Type: expr.TInt}, {Name: "s", Type: expr.TString, FixedLen: 4}, {Name: "v", Type: expr.TInt}}
		codec, err := catalog.NewRowCodec(cols)
		if err != nil {
			t.Fatal(err)
		}
		ct := &catalog.Table{Name: tab.name, Columns: cols, Codec: codec, TupleBytes: codec.Width(), Heap: storage.NewHeapFile(db.Pool)}
		for i := 0; i < tab.rows; i++ {
			rec, err := codec.Encode(expr.Row{tab.keys[i*7%len(tab.keys)], expr.S(fmt.Sprintf("s%d", i%(30+len(tab.keys)%17))), expr.I(int64(i))})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ct.Heap.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		ct.Card = int64(tab.rows)
		if err := db.Cat.AddTable(ct); err != nil {
			t.Fatal(err)
		}
	}
}
