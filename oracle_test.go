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
	"regexp"
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
// encoding, sorted.
func (o *rowOracle) answer(t *testing.T, sql string) (cols, rows []string) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.OrderBy.Col != "" || stmt.Limit >= 0 {
		t.Fatalf("oracle: %q has ORDER BY or LIMIT", sql)
	}
	cols, all := o.eval(t, sql, stmt)
	return cols, encodeRows(all)
}

// encodeRows renders rows as their values' key encodings, sorted.
func encodeRows(rows []expr.Row) []string {
	out := make([]string, len(rows))
	var buf []byte
	for i, row := range rows {
		buf = buf[:0]
		for _, v := range row {
			buf = v.AppendKey(buf)
		}
		out[i] = string(buf)
	}
	slices.Sort(out)
	return out
}

// ordered is the answer to a SELECT * … ORDER BY key LIMIT k statement: the
// statement's rows sorted stably by the key column (descending with DESC)
// and the first k of them kept, and every row the statement has before the
// LIMIT, by which the rows a plan may keep at the last key kept are judged.
type ordered struct {
	cols      []string
	key       int // the ORDER BY column, in cols
	kept, all []expr.Row
}

// answerOrdered answers a SELECT * statement with ORDER BY and LIMIT.
func (o *rowOracle) answerOrdered(t *testing.T, sql string) ordered {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.OrderBy.Col == "" || stmt.Limit < 0 {
		t.Fatalf("oracle: %q is not ORDER BY … LIMIT", sql)
	}
	var a ordered
	a.cols, a.all = o.eval(t, sql, stmt)
	if a.key = slices.Index(a.cols, stmt.OrderBy.String()); a.key < 0 {
		t.Fatalf("oracle: %q orders by %s, not a column of %v", sql, stmt.OrderBy, a.cols)
	}
	dir := 1
	if stmt.Desc {
		dir = -1
	}
	a.kept = slices.Clone(a.all)
	slices.SortStableFunc(a.kept, func(x, y expr.Row) int { return dir * x[a.key].Compare(y[a.key]) })
	a.kept = a.kept[:min(len(a.kept), int(stmt.Limit))]
	return a
}

// check holds an executor's result, in the order it delivered it, to the
// answer. A plan may break ties among rows of one key differently than a
// stable sort does, so: the keys in delivered order are the answer's keys;
// rows with a key before the last key kept are the answer's as a multiset;
// and each row at that last key is a row of the statement with that key, as
// many as the answer keeps.
func (a ordered) check(res *predplace.Result) error {
	idx := make([]int, len(a.cols))
	for i, c := range a.cols {
		if idx[i] = slices.Index(res.Cols, c); idx[i] < 0 {
			return fmt.Errorf("result has no column %s (columns %v)", c, res.Cols)
		}
	}
	got := make([]expr.Row, len(res.Rows))
	for i, row := range res.Rows {
		got[i] = make(expr.Row, len(idx))
		for j, k := range idx {
			got[i][j] = row[k]
		}
	}
	if len(got) != len(a.kept) {
		return fmt.Errorf("%d rows, the oracle keeps %d", len(got), len(a.kept))
	}
	if len(got) == 0 {
		return nil
	}
	for i := range got {
		if got[i][a.key].Compare(a.kept[i][a.key]) != 0 {
			return fmt.Errorf("row %d has key %v, the oracle's %v", i, got[i][a.key], a.kept[i][a.key])
		}
	}
	last := a.kept[len(a.kept)-1][a.key]
	before := func(rows []expr.Row) []expr.Row {
		return slices.DeleteFunc(slices.Clone(rows), func(r expr.Row) bool { return r[a.key].Compare(last) == 0 })
	}
	if g, w := encodeRows(before(got)), encodeRows(before(a.kept)); !slices.Equal(g, w) {
		return fmt.Errorf("before the last key kept (%v): %s", last, firstDifference(g, w))
	}
	atLast := func(rows []expr.Row) []expr.Row {
		return slices.DeleteFunc(slices.Clone(rows), func(r expr.Row) bool { return r[a.key].Compare(last) != 0 })
	}
	pool := map[string]int{}
	for _, r := range encodeRows(atLast(a.all)) {
		pool[r]++
	}
	for _, r := range encodeRows(atLast(got)) {
		if pool[r]--; pool[r] < 0 {
			return fmt.Errorf("at the last key kept (%v): row %q is not one of the statement's", last, strings.ToValidUTF8(r, "?"))
		}
	}
	return nil
}

// eval answers stmt, a SELECT * statement, by its definition, ORDER BY and
// LIMIT aside: its column names in FROM order and its rows — each the FROM
// tables' rows side by side — in the cross product's order. A combination
// whose conjuncts so far are not all TRUE cannot make the conjunction TRUE,
// so the cross product skips its extensions — which changes how much is
// enumerated, never what is kept.
func (o *rowOracle) eval(t *testing.T, sql string, stmt *sqlparse.SelectStmt) (cols []string, rows []expr.Row) {
	t.Helper()
	if !stmt.Star || stmt.CountStar {
		t.Fatalf("oracle: %q is not a SELECT *", sql)
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
	var walk func(depth int)
	walk = func(depth int) {
		if depth == len(tabs) {
			rows = append(rows, slices.Concat(bound...))
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

// genExpensiveJoin draws a statement of Query 5's shape (paper Figure 9):
// one table joined to the others only through costly10join over u10/u20
// columns, so the planner runs a nested loop whose primary is that
// expensive function — under caching, with the sweep memo, and where the
// inner is a bare scan, with the scan dropping the records the memo
// rejects. The inner may carry a cheap filter (absorbed into the scan), and
// the others an equi-join and a costly selection.
func genExpensiveJoin(rng *rand.Rand) string {
	tables := []string{"t1", "t2", "t3"}
	rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	n := 2 + rng.Intn(2)
	tables = tables[:n]
	cols := []string{"u10", "u20"}
	pick := func() string { return cols[rng.Intn(len(cols))] }
	lone := tables[n-1]
	preds := []string{fmt.Sprintf("costly10join(%s.%s, %s.%s)", tables[rng.Intn(n-1)], pick(), lone, pick())}
	if n == 3 {
		preds = append(preds, fmt.Sprintf("%s.ua1 = %s.ua1", tables[0], tables[1]))
	}
	if rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("%s.u10 < %d", lone, 2+rng.Intn(18)))
	}
	if rng.Intn(3) == 0 {
		preds = append(preds, fmt.Sprintf("costly1(%s.u100)", tables[rng.Intn(n)]))
	}
	return fmt.Sprintf("SELECT * FROM %s WHERE %s", strings.Join(tables, ", "), strings.Join(preds, " AND "))
}

// genOrderLimit draws a SELECT * … ORDER BY key LIMIT k statement over one
// of three inputs — a scan, an expensive filter over a scan, an equi-join —
// keyed on a column with many ties or none, ascending or descending.
func genOrderLimit(rng *rand.Rand) string {
	tables := []string{"t1", "t2", "t3"}
	rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	var from, where string
	switch rng.Intn(3) {
	case 0:
		from = tables[0]
		if rng.Intn(2) == 0 {
			where = fmt.Sprintf(" WHERE %s.u20 < %d", tables[0], 1+rng.Intn(19))
		}
	case 1:
		from = tables[0]
		where = fmt.Sprintf(" WHERE costly10(%s.u20) AND %s.u100 >= %d", tables[0], tables[0], rng.Intn(60))
	default:
		from = tables[0] + ", " + tables[1]
		where = fmt.Sprintf(" WHERE %s.ua1 = %s.ua1", tables[0], tables[1])
		if rng.Intn(2) == 0 {
			where += fmt.Sprintf(" AND costly1(%s.u10)", tables[1])
		}
	}
	key := fmt.Sprintf("%s.%s", tables[rng.Intn(len(strings.Split(from, ", ")))], []string{"u10", "u20", "u100", "ua1"}[rng.Intn(4)])
	dir := ""
	if rng.Intn(2) == 0 {
		dir = " DESC"
	}
	return fmt.Sprintf("SELECT * FROM %s%s ORDER BY %s%s LIMIT %d", from, where, key, dir, []int{1, 5, 17, 60}[rng.Intn(4)])
}

// genIndexAccess draws a statement that plans an index access at scale
// 0.01: a point lookup or a short range on a1 (IndexScan), or an equi-join
// from an aK column to the other table's ua1 with that table cut down to a
// few rows by a1 (IndexNestLoop, its inner probing the aK tree once per
// outer row). A costly filter may ride along.
func genIndexAccess(rng *rand.Rand) string {
	tables := []string{"t1", "t2", "t3"}
	rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	x, y := tables[0], tables[1]
	card := 100 * int(x[1]-'0')
	from, preds := x, []string{}
	switch rng.Intn(3) {
	case 0:
		preds = append(preds, fmt.Sprintf("%s.a1 = %d", x, rng.Intn(card+card/10)))
	case 1:
		preds = append(preds, fmt.Sprintf("%s.a1 %s %d", x, []string{"<", "<="}[rng.Intn(2)], rng.Intn(3)))
	default:
		from = x + ", " + y
		preds = append(preds, fmt.Sprintf("%s.%s = %s.ua1", x, []string{"a1", "a10"}[rng.Intn(2)], y),
			fmt.Sprintf("%s.a1 %s %d", y, []string{"=", "<"}[rng.Intn(2)], rng.Intn(4)))
	}
	if rng.Intn(3) == 0 {
		preds = append(preds, fmt.Sprintf("costly1(%s.u10)", x))
	}
	return fmt.Sprintf("SELECT * FROM %s WHERE %s", from, strings.Join(preds, " AND "))
}

// reachesMergeDrop reports whether a rendered plan has a merge join whose
// inner is a heap scan, bare or under `column op constant` filters the scan
// absorbs: with integer keys, as genQuery's are, one of that join's sides then
// drains second and its scan drops the keys the first side lacks.
func reachesMergeDrop(rendered string) bool {
	lines := strings.Split(rendered, "\n")
	indent := func(ln string) int { return (len(ln) - len(strings.TrimLeft(ln, " "))) / 2 }
	for i, ln := range lines {
		if !strings.HasPrefix(strings.TrimSpace(ln), "MergeJoin ") {
			continue
		}
		d, children := indent(ln), 0
		for j := i + 1; j < len(lines) && indent(lines[j]) > d && strings.TrimSpace(lines[j]) != ""; j++ {
			if indent(lines[j]) != d+1 {
				continue
			}
			if children++; children < 2 {
				continue
			}
			for k := j; k < len(lines); k++ {
				node := strings.TrimSpace(lines[k])
				if strings.HasPrefix(node, "SeqScan ") {
					return true
				}
				if !cheapFilter.MatchString(node) {
					break
				}
			}
			break
		}
	}
	return false
}

// cheapFilter matches a rendered filter comparing a column with a constant.
var cheapFilter = regexp.MustCompile(`^Filter \w+\.\w+ (=|<>|<|<=|>|>=) [^ .]+ \(cost=`)

// TestRowOracle checks the row multiset of 200 genQuery statements, 12
// genExpensiveJoin ones and 24 genIndexAccess ones against the oracle at
// scale 0.01, at Parallelism {1, 3} × BatchSize {1, 7, 256} × caching off
// and on, each statement under one placement algorithm in turn; and 24
// genOrderLimit statements' rows with their order (ordered.check). Charged
// cost is other tests' business. At least mergeDropStatements of the
// genQuery statements plan a merge join whose second side drops keys on the
// record, and at least indexScanStatements and indexNLStatements of the
// genIndexAccess ones an IndexScan and an IndexNestLoop: each Open's indexes
// are built by the first of those, inside the matrix.
func TestRowOracle(t *testing.T) {
	const scale = 0.01
	const mergeDropStatements = 90
	const indexScanStatements, indexNLStatements = 7, 9
	tables := []int{1, 2, 3}
	oracle := newRowOracle(t, scale, tables)
	rng := rand.New(rand.NewSource(19940524))
	type stmt struct {
		sql        string
		cols, rows []string
		top        ordered // ORDER BY … LIMIT statements only
	}
	stmts := make([]stmt, 260)
	joins := rand.New(rand.NewSource(19940601))
	tops := rand.New(rand.NewSource(19940715))
	lookups := rand.New(rand.NewSource(19940801))
	for i := range stmts {
		s := &stmts[i]
		switch {
		case i < 200:
			s.sql = genQuery(rng)
		case i < 212:
			s.sql = genExpensiveJoin(joins)
		case i < 236:
			s.sql = genOrderLimit(tops)
			s.top = oracle.answerOrdered(t, s.sql)
			continue
		default:
			s.sql = genIndexAccess(lookups)
		}
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
				failed, drops, indexed, nested := 0, 0, 0, 0
				for i, s := range stmts {
					algo := algos[i%len(algos)]
					where := fmt.Sprintf("statement %d under %v, Parallelism %d, BatchSize %d, caching %v: %s",
						i, algo, par, bs, caching, s.sql)
					res, err := db.Query(s.sql, algo)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if i < 200 && reachesMergeDrop(res.Plan) {
						drops++
					}
					if i >= 236 && strings.Contains(res.Plan, "IndexNestLoop ") {
						nested++
					} else if i >= 236 && strings.Contains(res.Plan, "IndexScan ") {
						indexed++
					}
					if s.top.cols != nil {
						err = s.top.check(res)
					} else if got := oracleRows(t, s.cols, res); !slices.Equal(got, s.rows) {
						err = fmt.Errorf("%d rows, the oracle's %d; %s", len(got), len(s.rows), firstDifference(got, s.rows))
					}
					if err != nil {
						t.Errorf("%s: %v", where, err)
						if failed++; failed == 5 {
							t.FailNow()
						}
					}
				}
				if indexed < indexScanStatements || nested < indexNLStatements {
					t.Fatalf("Parallelism %d, caching %v: %d genIndexAccess statements plan an IndexScan and no index nested loop, %d an IndexNestLoop; want at least %d and %d",
						par, caching, indexed, nested, indexScanStatements, indexNLStatements)
				}
				if drops < mergeDropStatements {
					t.Fatalf("Parallelism %d, caching %v: %d genQuery statements reach a merge join's key drops, want at least %d",
						par, caching, drops, mergeDropStatements)
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
