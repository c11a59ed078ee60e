package predplace_test

// The row oracle: a reference evaluator that shares nothing with the
// executor between a stored record and a result row. It builds the same
// tables with datagen.Build, reads every heap page straight off the
// simulated disk and decodes every live record with the table's
// RowCodec.Decode, then answers a SELECT * by the definition of the
// statement — the cross product of the FROM tables in FROM order, kept
// where the WHERE conjunction is TRUE under SQL's three-valued logic, each
// function predicate through its catalog FuncDef.Eval. No plan, buffer
// pool, batch, predicate cache or record test is involved, so a wrong row
// that every knob setting of the executor agrees on still differs from it.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"predplace"
	"predplace/internal/catalog"
	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/sqlparse"
	"predplace/internal/storage"
)

// rowOracle holds every benchmark table's rows as decoded from its records.
type rowOracle struct {
	cat  *catalog.Catalog
	rows map[string][]expr.Row
}

func newRowOracle(t *testing.T, scale float64, tables []int) *rowOracle {
	t.Helper()
	db, err := datagen.Build(datagen.Config{Scale: scale, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	o := &rowOracle{cat: db.Cat, rows: map[string][]expr.Row{}}
	for _, tab := range db.Cat.Tables() {
		for p := 0; p < tab.Heap.NumPages(); p++ {
			pg, err := db.Disk.ReadPage(tab.Heap.FileID(), storage.PageID(p))
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < pg.NumSlots(); s++ {
				rec, live := pg.Get(storage.SlotID(s))
				if !live {
					continue
				}
				row, err := tab.Codec.Decode(rec)
				if err != nil {
					t.Fatal(err)
				}
				o.rows[tab.Name] = append(o.rows[tab.Name], row)
			}
		}
		if int64(len(o.rows[tab.Name])) != tab.Card {
			t.Fatalf("oracle: %s has %d records, its catalog entry says %d", tab.Name, len(o.rows[tab.Name]), tab.Card)
		}
	}
	return o
}

// truth is a value of SQL's three-valued logic, ordered so that a
// conjunction is the minimum of its conjuncts.
type truth int8

const (
	isFalse truth = iota
	isUnknown
	isTrue
)

// oracleCol is a column of the cross product: the FROM table it comes from
// and its index in that table's rows.
type oracleCol struct{ table, col int }

// conjunct is one WHERE predicate, evaluated at the first FROM position
// that binds every table it reads.
type conjunct struct {
	depth int
	eval  func(bound []expr.Row) truth
}

// answer returns the result of a SELECT * statement: its column names in
// FROM order and its rows in that order, each rendered as its values' key
// encoding, sorted. A combination whose conjuncts so far are not all TRUE
// cannot make the conjunction TRUE, so the cross product skips its
// extensions — which changes how much is enumerated, never what is kept.
func (o *rowOracle) answer(t *testing.T, sql string) (cols, rows []string) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Star || stmt.CountStar || stmt.OrderBy.Col != "" || stmt.Limit >= 0 {
		t.Fatalf("oracle: %q is not a plain SELECT *", sql)
	}
	var tabs []*catalog.Table
	for _, name := range stmt.Tables {
		tab, err := o.cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, tab)
		for _, c := range tab.Columns {
			cols = append(cols, name+"."+c.Name)
		}
	}
	column := func(c sqlparse.ColExpr) oracleCol {
		for i, tab := range tabs {
			if tab.Name == c.Table {
				if k := tab.ColIndex(c.Col); k >= 0 {
					return oracleCol{i, k}
				}
			}
		}
		t.Fatalf("oracle: %q: no column %s", sql, c)
		return oracleCol{}
	}
	operand := func(op sqlparse.Operand) (func(bound []expr.Row) expr.Value, int) {
		switch {
		case op.IsCol:
			c := column(op.Col)
			return func(bound []expr.Row) expr.Value { return bound[c.table][c.col] }, c.table
		case op.IsString:
			return func([]expr.Row) expr.Value { return expr.S(op.Str) }, 0
		case op.IsNull:
			return func([]expr.Row) expr.Value { return expr.Null }, 0
		case op.IsBool:
			return func([]expr.Row) expr.Value { return expr.B(op.Bool) }, 0
		}
		return func([]expr.Row) expr.Value { return expr.I(op.Int) }, 0
	}
	var conjs []conjunct
	for _, w := range stmt.Where {
		switch p := w.(type) {
		case *sqlparse.CmpPred:
			l, ld := operand(p.Left)
			r, rd := operand(p.Right)
			holds := map[string]func(int) bool{
				"=": func(c int) bool { return c == 0 }, "<>": func(c int) bool { return c != 0 },
				"<": func(c int) bool { return c < 0 }, "<=": func(c int) bool { return c <= 0 },
				">": func(c int) bool { return c > 0 }, ">=": func(c int) bool { return c >= 0 },
			}[p.Op]
			if holds == nil {
				t.Fatalf("oracle: %q: operator %s", sql, p.Op)
			}
			conjs = append(conjs, conjunct{depth: max(ld, rd), eval: func(bound []expr.Row) truth {
				a, b := l(bound), r(bound)
				switch {
				case a.IsNull() || b.IsNull():
					return isUnknown
				case a.Kind != b.Kind:
					t.Fatalf("oracle: %q compares %v with %v", sql, a.Kind, b.Kind)
				case holds(a.Compare(b)):
					return isTrue
				}
				return isFalse
			}})
		case *sqlparse.FuncPred:
			f, err := o.cat.Func(p.Name)
			if err != nil {
				t.Fatal(err)
			}
			var args []func([]expr.Row) expr.Value
			depth := 0
			for _, a := range p.Args {
				v, d := operand(a)
				args, depth = append(args, v), max(depth, d)
			}
			conjs = append(conjs, conjunct{depth: depth, eval: func(bound []expr.Row) truth {
				vals := make([]expr.Value, len(args))
				for i, a := range args {
					vals[i] = a(bound)
				}
				v := f.Eval(vals)
				if v.IsNull() {
					return isUnknown
				}
				b, ok := v.Bool()
				if !ok {
					t.Fatalf("oracle: %q: %s returned %v", sql, p.Name, v)
				}
				if b {
					return isTrue
				}
				return isFalse
			}})
		default:
			t.Fatalf("oracle: %q: the oracle does not evaluate %T", sql, w)
		}
	}

	bound := make([]expr.Row, len(tabs))
	var buf []byte
	var walk func(depth int)
	walk = func(depth int) {
		if depth == len(tabs) {
			buf = buf[:0]
			for _, row := range bound {
				for _, v := range row {
					buf = v.AppendKey(buf)
				}
			}
			rows = append(rows, string(buf))
			return
		}
		for _, row := range o.rows[tabs[depth].Name] {
			bound[depth] = row
			all := isTrue
			for _, c := range conjs {
				if c.depth == depth {
					all = min(all, c.eval(bound))
				}
			}
			if all == isTrue {
				walk(depth + 1)
			}
		}
	}
	walk(0)
	slices.Sort(rows)
	return cols, rows
}

// oracleRows renders an executor result as answer renders the oracle's: each
// row's values in the oracle's column order, key-encoded, sorted.
func oracleRows(t *testing.T, cols []string, res *predplace.Result) []string {
	t.Helper()
	idx := make([]int, len(cols))
	for i, c := range cols {
		if idx[i] = slices.Index(res.Cols, c); idx[i] < 0 {
			t.Fatalf("result has no column %s (columns %v)", c, res.Cols)
		}
	}
	out := make([]string, len(res.Rows))
	var buf []byte
	for i, row := range res.Rows {
		buf = buf[:0]
		for _, k := range idx {
			buf = row[k].AppendKey(buf)
		}
		out[i] = string(buf)
	}
	slices.Sort(out)
	return out
}

// TestRowOracle checks the row multiset of 200 genQuery statements against
// the oracle at scale 0.01, at Parallelism {1, 3} × BatchSize {1, 7, 256} ×
// caching off and on, each statement under one placement algorithm in turn.
// Charged cost and row order are other tests' business.
func TestRowOracle(t *testing.T) {
	const scale = 0.01
	tables := []int{1, 2, 3}
	oracle := newRowOracle(t, scale, tables)
	rng := rand.New(rand.NewSource(19940524))
	type stmt struct {
		sql        string
		cols, rows []string
	}
	stmts := make([]stmt, 200)
	for i := range stmts {
		s := &stmts[i]
		s.sql = genQuery(rng)
		s.cols, s.rows = oracle.answer(t, s.sql)
	}
	algos := predplace.Algorithms()
	for _, par := range []int{1, 3} {
		db, err := predplace.Open(predplace.Config{Scale: scale, Tables: tables, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{1, 7, 256} {
			db.SetBatchSize(bs)
			for _, caching := range []bool{false, true} {
				db.SetCaching(caching)
				failed := 0
				for i, s := range stmts {
					algo := algos[i%len(algos)]
					where := fmt.Sprintf("statement %d under %v, Parallelism %d, BatchSize %d, caching %v: %s",
						i, algo, par, bs, caching, s.sql)
					res, err := db.Query(s.sql, algo)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if got := oracleRows(t, s.cols, res); !slices.Equal(got, s.rows) {
						t.Errorf("%s: %d rows, the oracle's %d; %s", where, len(got), len(s.rows), firstDifference(got, s.rows))
						if failed++; failed == 5 {
							t.FailNow()
						}
					}
				}
			}
		}
	}
}

// firstDifference names the first row one sorted multiset has that the other
// lacks.
func firstDifference(got, want []string) string {
	i, j := 0, 0
	for i < len(got) && j < len(want) && got[i] == want[j] {
		i, j = i+1, j+1
	}
	switch {
	case i < len(got) && (j == len(want) || got[i] < want[j]):
		return fmt.Sprintf("extra row %q", strings.ToValidUTF8(got[i], "?"))
	case j < len(want):
		return fmt.Sprintf("missing row %q", strings.ToValidUTF8(want[j], "?"))
	}
	return "equal"
}
