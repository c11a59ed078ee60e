package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// keyedRows turns keys into two-column rows (key, input position); the
// position column identifies a row in the order assertions below.
func keyedRows(keys []expr.Value) []expr.Row {
	rows := make([]expr.Row, len(keys))
	for i, k := range keys {
		rows[i] = expr.Row{k, expr.I(int64(i))}
	}
	return rows
}

// sameRows requires got and want to hold the same rows in the same order.
func sameRows(t *testing.T, what string, got, want []expr.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if rowKey(got[i]) != rowKey(want[i]) {
			t.Fatalf("%s: row %d = %s, want %s", what, i, rowKey(got[i]), rowKey(want[i]))
		}
	}
}

// checkJoinTable builds a table over inner and probes it with every outer
// key, comparing each chain with a naive scan: the inner rows whose key
// Value.Equal's the probe, NULLs excluded, in insertion order.
func checkJoinTable(t *testing.T, name string, inner, outer []expr.Value) {
	t.Helper()
	rows := keyedRows(inner)
	tab := joinTable{idx: 0}
	for _, r := range rows {
		tab.add(r)
	}
	for _, k := range outer {
		var want, got []expr.Row
		for _, r := range rows {
			if !k.IsNull() && r[0].Equal(k) {
				want = append(want, r)
			}
		}
		for i := tab.first(k); i >= 0; i = tab.next[i] {
			got = append(got, tab.rows[i])
		}
		sameRows(t, name+": probe "+k.String(), got, want)
	}
}

func TestJoinTableMatchesReference(t *testing.T) {
	I, S, B, N := expr.I, expr.S, expr.B, expr.Null
	cases := []struct {
		name         string
		inner, outer []expr.Value
	}{
		{"empty inner", nil, []expr.Value{I(1), S("a"), N}},
		{"empty outer", []expr.Value{I(1), I(2)}, nil},
		{"null keys on both sides", []expr.Value{N, I(1), N, I(2)}, []expr.Value{N, I(1), I(2), I(3)}},
		{"only null inner", []expr.Value{N, N}, []expr.Value{N, I(0)}},
		{"duplicates keep insertion order", []expr.Value{I(7), I(3), I(7), I(7), I(3), I(9)}, []expr.Value{I(7), I(3), I(9), I(8)}},
		{"extreme integers", []expr.Value{I(math.MinInt64), I(-1), I(0), I(math.MaxInt64), I(math.MinInt64), I(-1)},
			[]expr.Value{I(math.MinInt64), I(math.MaxInt64), I(-1), I(0), I(1), I(math.MinInt64 + 1)}},
		{"bool and int of equal payload differ", []expr.Value{B(true), I(1), B(false), I(0), B(true)}, []expr.Value{I(1), B(true), I(0), B(false)}},
		{"string keys", []expr.Value{S("b"), S("a"), S("b"), S(""), S("ab")}, []expr.Value{S("a"), S("b"), S(""), S("ab"), S("c")}},
		{"mixed kinds in one column", []expr.Value{I(1), S("1"), B(true), N, I(1), S("1")}, []expr.Value{I(1), S("1"), B(true), N, I(2)}},
	}
	for _, c := range cases {
		checkJoinTable(t, c.name, c.inner, c.outer)
	}

	// Randomized: enough rows to double the integer table several times,
	// small domains so chains are long, every kind mixed in.
	rng := rand.New(rand.NewSource(12))
	randKey := func(domain int64) expr.Value {
		switch rng.Intn(10) {
		case 0:
			return N
		case 1:
			return S(string(rune('a' + rng.Int63n(domain)%26)))
		case 2:
			return B(rng.Intn(2) == 0)
		}
		return I(rng.Int63n(domain) - domain/2)
	}
	for trial := 0; trial < 20; trial++ {
		domain := int64(1 + rng.Intn(400))
		inner := make([]expr.Value, rng.Intn(1500))
		for i := range inner {
			inner[i] = randKey(domain)
		}
		outer := make([]expr.Value, 200)
		for i := range outer {
			outer[i] = randKey(domain + 10)
		}
		checkJoinTable(t, "random", inner, outer)
	}
}

// checkSortRowsByKey compares sortRowsByKey with a naive stable insertion
// sort under Value.Compare (past 2000 rows, the library's stable sort); the
// position column makes any reordering of equal keys visible.
func checkSortRowsByKey(t *testing.T, name string, keys []expr.Value) {
	t.Helper()
	want := keyedRows(keys)
	if len(want) <= 2000 {
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && want[j][0].Compare(want[j-1][0]) < 0; j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
	} else { // quadratic no longer: the library's stable sort under the same order
		slices.SortStableFunc(want, func(a, b expr.Row) int { return a[0].Compare(b[0]) })
	}
	got := keyedRows(keys)
	sortRowsByKey(got, 0)
	sameRows(t, name, got, want)
}

func TestSortRowsByKeyMatchesReference(t *testing.T) {
	I, S, B, N := expr.I, expr.S, expr.B, expr.Null
	cases := []struct {
		name string
		keys []expr.Value
	}{
		{"empty", nil},
		{"single", []expr.Value{I(4)}},
		{"sorted", []expr.Value{I(1), I(2), I(3), I(4)}},
		{"reversed", []expr.Value{I(4), I(3), I(2), I(1)}},
		{"equal keys keep input order", []expr.Value{I(2), I(1), I(2), I(1), I(2), I(1), I(1)}},
		{"extreme integers", []expr.Value{I(math.MaxInt64), I(0), I(math.MinInt64), I(-1), I(math.MaxInt64), I(math.MinInt64)}},
		{"nulls take the general path", []expr.Value{I(3), N, I(1), N, I(3)}},
		{"strings", []expr.Value{S("b"), S("a"), S("b"), S(""), S("a")}},
		{"mixed kinds", []expr.Value{B(true), I(1), S("1"), N, I(0), B(false), I(1)}},
	}
	for _, c := range cases {
		checkSortRowsByKey(t, c.name, c.keys)
	}
	rng := rand.New(rand.NewSource(34))
	// The radix path: sizes either side of radixMin and one well past it, on
	// key shapes that decide how many byte passes run and what each sees.
	shapes := []struct {
		name string
		key  func(i, n int) int64
	}{
		{"negative", func(i, n int) int64 { return -1 - rng.Int63n(1000) }},
		{"around zero", func(i, n int) int64 { return rng.Int63n(2001) - 1000 }},
		{"full int64 span", func(i, n int) int64 {
			switch i % 3 {
			case 0:
				return math.MinInt64 + rng.Int63n(3)
			case 1:
				return math.MaxInt64 - rng.Int63n(3)
			}
			return int64(rng.Uint64())
		}},
		{"all equal", func(i, n int) int64 { return 42 }},
		{"already sorted", func(i, n int) int64 { return int64(i/2) - 17 }},
		{"reverse sorted", func(i, n int) int64 { return int64((n-i)/2) << 20 }},
		{"one byte apart in the top byte", func(i, n int) int64 { return rng.Int63n(4) << 56 }},
	}
	for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 10000} {
		for _, sh := range shapes {
			keys := make([]expr.Value, n)
			for i := range keys {
				keys[i] = I(sh.key(i, n))
			}
			checkSortRowsByKey(t, fmt.Sprintf("%s n=%d", sh.name, n), keys)
		}
	}
	for trial := 0; trial < 30; trial++ {
		domain := int64(1 + rng.Intn(300))
		keys := make([]expr.Value, rng.Intn(2000))
		for i := range keys {
			keys[i] = I(rng.Int63n(domain) - domain/2)
		}
		if trial%3 == 0 && len(keys) > 0 { // knock the column off the integer path
			keys[rng.Intn(len(keys))] = N
			keys[rng.Intn(len(keys))] = S("x")
		}
		checkSortRowsByKey(t, "random", keys)
	}
}

// TestMergeJoinMatrix runs a merge join with duplicate runs on both sides
// over the executor grid: every configuration returns the same rows and
// charges the same cost, and the serial ones agree on row order too.
func TestMergeJoinMatrix(t *testing.T) {
	db, env := newEnv(t, []int{2, 4}, false)
	q, err := query.NewQuery([]string{"t2", "t4"}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: "t2", Col: "a10"}, Right: query.ColRef{Table: "t4", Col: "a10"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t2")
	inner := scanNode(t, db.Cat, "t4")
	j := &plan.Join{Method: plan.MergeJoin, Outer: outer, Inner: inner,
		Primary: q.Preds[0], SortOuter: true, SortInner: true}
	j.ColRefs = plan.ConcatCols(outer, inner)
	var base *Result
	for _, m := range abortMatrix {
		env.Parallelism, env.BatchSize = m.parallelism, m.batchSize
		res, err := Run(env, j)
		if err != nil {
			t.Fatalf("P=%d BS=%d: %v", m.parallelism, m.batchSize, err)
		}
		if base == nil {
			base = res
			if len(base.Rows) != 4000 { // 40 shared a10 values × 10 × 10
				t.Fatalf("rows = %d, want 4000", len(base.Rows))
			}
			continue
		}
		if m.parallelism == 1 {
			sameRows(t, "serial batched merge join", res.Rows, base.Rows)
		} else {
			sameRowMultiset(t, res.Rows, base.Rows)
		}
		if got, want := res.Stats.Charged(), base.Stats.Charged(); got != want {
			t.Fatalf("P=%d BS=%d: charged %v, width-1 serial %v", m.parallelism, m.batchSize, got, want)
		}
	}
	env.Parallelism, env.BatchSize = 1, 0
}

// benchJoinRows is the build side the figure queries see: t10 at scale 0.3,
// 30 000 rows of 8 columns with a unique integer join key in no order.
func benchJoinRows() []expr.Row {
	const n, width = 30000, 8
	rng := rand.New(rand.NewSource(7))
	var alloc rowAlloc
	rows := make([]expr.Row, n)
	for i, k := range rng.Perm(n) {
		rows[i] = alloc.next(width)
		rows[i][0] = expr.I(int64(k))
	}
	return rows
}

var benchSink int

func BenchmarkJoinTableBuild(b *testing.B) {
	rows := benchJoinRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := joinTable{idx: 0}
		for _, r := range rows {
			tab.add(r)
		}
		benchSink += len(tab.rows)
	}
}

func BenchmarkJoinTableProbe(b *testing.B) {
	rows := benchJoinRows()
	tab := joinTable{idx: 0}
	for _, r := range rows {
		tab.add(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rows { // every probe hits, one match each
			for m := tab.first(r[0]); m >= 0; m = tab.next[m] {
				benchSink++
			}
		}
	}
}

func BenchmarkMergeJoinSort(b *testing.B) {
	rows := benchJoinRows()
	work := make([]expr.Row, len(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, rows)
		sortRowsByKey(work, 0)
	}
}
