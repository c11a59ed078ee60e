package predplace

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"predplace/internal/datagen"
	"predplace/internal/exec"
	"predplace/internal/expr"
)

func openBench(t *testing.T, tables ...int) *DB {
	t.Helper()
	db, err := Open(Config{Scale: 0.02, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQuerySingleTable(t *testing.T) {
	db := openBench(t, 1)
	res, err := db.Query("SELECT * FROM t1 WHERE t1.ua1 < 10", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows != 10 {
		t.Fatalf("rows = %d, want 10", res.Stats.Rows)
	}
	if res.Plan == "" || res.EstCost <= 0 {
		t.Fatal("plan/estimate missing")
	}
}

func TestQueryProjection(t *testing.T) {
	db := openBench(t, 1)
	res, err := db.Query("SELECT t1.ua1 FROM t1 WHERE t1.ua1 < 5", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || res.Cols[0] != "t1.ua1" {
		t.Fatalf("cols = %v", res.Cols)
	}
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r[0].I)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("values = %v", got)
		}
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	db := openBench(t, 1, 3)
	res, err := db.Query("EXPLAIN SELECT * FROM t1, t3 WHERE t1.ua1 = t3.ua1 AND costly100(t3.u20)", Migration)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explained || res.Rows != nil || res.Stats.Rows != 0 {
		t.Fatal("EXPLAIN must not execute")
	}
	if !strings.Contains(res.Plan, "costly100") {
		t.Fatalf("plan missing predicate:\n%s", res.Plan)
	}
	s, err := db.Explain("SELECT * FROM t1", PushDown)
	if err != nil || !strings.Contains(s, "SeqScan t1") {
		t.Fatalf("Explain: %q %v", s, err)
	}
}

func TestAllAlgorithmsSameRows(t *testing.T) {
	// The correctness invariant the paper's debugging relied on: every
	// algorithm's plan must compute the same result set.
	db := openBench(t, 1, 3, 10)
	sql := "SELECT * FROM t1, t3, t10 WHERE t1.ua1 = t3.ua1 AND t3.ua1 = t10.ua1 AND costly100(t3.u20)"
	results, err := db.CompareAll(sql)
	if err != nil {
		t.Fatal(err)
	}
	canon := func(r *Result) []string {
		var out []string
		for _, row := range r.Rows {
			var b strings.Builder
			// Column order differs per join order; compare sorted cells.
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			sort.Strings(cells)
			b.WriteString(strings.Join(cells, "|"))
			out = append(out, b.String())
		}
		sort.Strings(out)
		return out
	}
	ref := canon(results[0])
	if len(ref) == 0 {
		t.Fatal("query should produce rows")
	}
	for i, r := range results[1:] {
		got := canon(r)
		if len(got) != len(ref) {
			t.Fatalf("algorithm %v: %d rows, want %d", Algorithms()[i+1], len(got), len(ref))
		}
		for k := range got {
			if got[k] != ref[k] {
				t.Fatalf("algorithm %v: row %d differs", Algorithms()[i+1], k)
			}
		}
	}
}

func TestCachingReducesCharge(t *testing.T) {
	db := openBench(t, 3, 10)
	sql := "SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10 AND costly100(t3.u20)"
	db.SetOptions(func(c *Config) { c.Caching = false })
	uncached, err := db.Query(sql, PushDown)
	if err != nil {
		t.Fatal(err)
	}
	db.SetOptions(func(c *Config) { c.Caching = true })
	cached, err := db.Query(sql, PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.Invocations["costly100"] >= uncached.Stats.Invocations["costly100"] {
		t.Fatalf("caching should reduce invocations: %d vs %d",
			cached.Stats.Invocations["costly100"], uncached.Stats.Invocations["costly100"])
	}
	if cached.Stats.CacheHits == 0 {
		t.Fatal("expected cache hits")
	}
}

func TestBudgetDNF(t *testing.T) {
	db := openBench(t, 3, 10)
	db.SetOptions(func(c *Config) { c.Budget = 100 })
	res, err := db.Query("SELECT * FROM t3, t10 WHERE t3.ua1 = t10.ua1 AND costly1000(t3.u20)", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DNF {
		t.Fatal("expected DNF")
	}
}

// TestSetOptions: SetOptions resolves Parallelism and RobustE as Open does,
// keeps the fields only Open reads, and leaves a statement that is already
// running on the options it began with.
func TestSetOptions(t *testing.T) {
	db, err := Open(Config{Scale: 0.01, Tables: []int{1}, PoolPages: 300, PlanCacheSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	opened := db.Options()
	db.SetOptions(func(c *Config) {
		c.Scale, c.Tables, c.PoolPages, c.PlanCacheSize = 1, []int{2}, 7, -1
		c.Parallelism, c.RobustE, c.BatchSize = -1, 0.5, 7
	})
	got := db.Options()
	if got.Scale != 0.01 || !slices.Equal(got.Tables, []int{1}) || got.PoolPages != 300 || got.PlanCacheSize != 5 {
		t.Fatalf("open-time fields changed: %+v, opened with %+v", got, opened)
	}
	if got.Parallelism != runtime.GOMAXPROCS(0) || got.RobustE != DefaultRobustE || got.BatchSize != 7 {
		t.Fatalf("Parallelism -1, RobustE 0.5, BatchSize 7 resolved to %d, %v, %d; want %d, %v, 7",
			got.Parallelism, got.RobustE, got.BatchSize, runtime.GOMAXPROCS(0), DefaultRobustE)
	}
	db.SetOptions(func(c *Config) { c.Parallelism, c.RobustE, c.BatchSize = 0, 1, 0 })
	if got := db.Options(); got.Parallelism != 1 || got.RobustE != DefaultRobustE {
		t.Fatalf("Parallelism 0, RobustE 1 resolved to %d, %v; want 1, %v", got.Parallelism, got.RobustE, DefaultRobustE)
	}

	// gate holds the statement inside its first evaluation until the options
	// have changed under it: caching, profiling and a budget it would exceed.
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	if err := db.RegisterFunc("gate", 1, 1, 1, func([]Value) Value {
		once.Do(func() { close(started); <-release })
		return Bool(true)
	}); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome)
	go func() {
		res, err := db.Query("SELECT * FROM t1 WHERE gate(t1.u10)", PushDown)
		done <- outcome{res, err}
	}()
	<-started
	db.SetOptions(func(c *Config) { c.Caching, c.Profile, c.Budget = true, true, 1 })
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	t1, err := db.Catalog().Table("t1")
	if err != nil {
		t.Fatal(err)
	}
	card := t1.Card
	if r.res.DNF || r.res.Profile != nil || r.res.Stats.CacheHits != 0 || int64(r.res.Stats.Rows) != card ||
		r.res.Stats.Invocations["gate"] != card {
		t.Fatalf("the running statement saw the new options: DNF %v, profile %v, %d cache hits, %d rows and %d invocations of %d",
			r.res.DNF, r.res.Profile != nil, r.res.Stats.CacheHits, r.res.Stats.Rows, r.res.Stats.Invocations["gate"], card)
	}
	if res, err := db.Query("SELECT * FROM t1 WHERE gate(t1.u10)", PushDown); err != nil || !res.DNF {
		t.Fatalf("the next statement ran without the new budget: %v", err)
	}
}

func TestUserTableAndFunction(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("emp", []ColumnSpec{
		{Name: "id", Indexed: true},
		{Name: "salary"},
		{Name: "name", String: true, Len: 16},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Insert("emp", i, 1000+i%10*100, "emp"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze("emp"); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterFunc("red_beard", 1, 50, 0.25, func(args []Value) Value {
		if args[0].IsNull() {
			return NullValue
		}
		return Bool(args[0].I%4 == 0)
	}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT * FROM emp WHERE red_beard(emp.id) AND emp.salary >= 1500", Migration)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows == 0 {
		t.Fatal("expected matches")
	}
	// The free salary comparison must be applied below the expensive
	// predicate: invocations < 100.
	if res.Stats.Invocations["red_beard"] >= 100 {
		t.Fatalf("rank ordering failed: %d invocations", res.Stats.Invocations["red_beard"])
	}
}

func TestInSubqueryCorrelated(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate := func(name string, cols []ColumnSpec) {
		if err := db.CreateTable(name, cols); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("student", []ColumnSpec{{Name: "id"}, {Name: "mother"}, {Name: "dept"}})
	mustCreate("professor", []ColumnSpec{{Name: "name"}, {Name: "dept"}})
	// professors: name n in dept n%3
	for n := 0; n < 30; n++ {
		if err := db.Insert("professor", n, n%3); err != nil {
			t.Fatal(err)
		}
	}
	// students: mother m, dept d — in subquery iff professor m exists with dept d
	for i := 0; i < 60; i++ {
		if err := db.Insert("student", i, i%40, i%3); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze("student")
	db.Analyze("professor")

	res, err := db.Query(`SELECT * FROM student WHERE student.mother IN
		(SELECT name FROM professor WHERE professor.dept = student.dept)`, PushDown)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: mother < 30 (a professor) and mother%3 == dept.
	want := 0
	for i := 0; i < 60; i++ {
		m, d := i%40, i%3
		if m < 30 && m%3 == d {
			want++
		}
	}
	if res.Stats.Rows != want {
		t.Fatalf("rows = %d, want %d", res.Stats.Rows, want)
	}
	if res.Stats.IO.Total() == 0 {
		t.Fatal("subquery evaluation should cost real I/O")
	}
}

// TestInSubqueryNulls holds IN and NOT IN over a subquery to SQL's
// three-valued logic, with the predicate cache on and off: a match is TRUE
// for IN and FALSE for NOT IN; no match beside a NULL output, or a NULL x
// over a non-empty set, is NULL (the row is dropped either way); the empty
// set is FALSE for IN and TRUE for NOT IN, whatever x is.
func TestInSubqueryNulls(t *testing.T) {
	for _, caching := range []bool{false, true} {
		db, err := Open(Config{Caching: caching})
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range []struct {
			name string
			cols []ColumnSpec
			rows [][]interface{}
		}{
			// The plain case: s holds a NULL, so nothing is NOT IN it.
			{"r", []ColumnSpec{{Name: "x"}}, [][]interface{}{{1}, {2}}},
			{"s", []ColumnSpec{{Name: "y"}}, [][]interface{}{{1}, {nil}}},
			// Correlated on g: group 1 holds a NULL, group 2 does not, group 3
			// is empty.
			{"a", []ColumnSpec{{Name: "x"}, {Name: "g"}}, [][]interface{}{
				{1, 1}, {2, 1}, {2, 2}, {4, 2}, {nil, 2}, {nil, 3}, {5, 3}}},
			{"b", []ColumnSpec{{Name: "y"}, {Name: "g"}}, [][]interface{}{
				{1, 1}, {nil, 1}, {2, 2}, {3, 2}}},
		} {
			if err := db.CreateTable(tab.name, tab.cols); err != nil {
				t.Fatal(err)
			}
			for _, row := range tab.rows {
				if err := db.Insert(tab.name, row...); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Analyze(tab.name); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct{ sql, want string }{
			{"SELECT * FROM r WHERE r.x IN (SELECT y FROM s)", "1"},
			{"SELECT * FROM r WHERE r.x NOT IN (SELECT y FROM s)", ""},
			{"SELECT * FROM a WHERE a.x IN (SELECT y FROM b WHERE b.g = a.g)", "1,1 2,2"},
			{"SELECT * FROM a WHERE a.x NOT IN (SELECT y FROM b WHERE b.g = a.g)", "4,2 5,3 NULL,3"},
		} {
			res, err := db.Query(c.sql, PushDown)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, row := range res.Rows {
				cells := make([]string, len(row))
				for i, v := range row {
					cells[i] = v.String()
				}
				got = append(got, strings.Join(cells, ","))
			}
			sort.Strings(got)
			if g := strings.Join(got, " "); g != c.want {
				t.Errorf("caching=%v %s: rows %q, want %q", caching, c.sql, g, c.want)
			}
		}
	}
}

// TestInSubqueryAllocs: one invocation of a correlated IN scans the whole
// subquery table, and decodes only the columns it compares into one row, so
// what it allocates does not grow with the table (decoding every scanned
// record into a fresh row was two allocations a record).
func TestInSubqueryAllocs(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("r", []ColumnSpec{{Name: "x"}, {Name: "g"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("s", []ColumnSpec{{Name: "y"}, {Name: "g"}, {Name: "pad", String: true, Len: 80}}); err != nil {
		t.Fatal(err)
	}
	const rows = 1000
	for i := 0; i < rows; i++ {
		if err := db.Insert("s", i, i%10, "filler "+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Prepare("SELECT * FROM r WHERE r.x IN (SELECT y FROM s WHERE s.g = r.g)", PushDown); err != nil {
		t.Fatal(err)
	}
	f, err := db.Catalog().Func("in_s_1") // arguments r.x, r.g
	if err != nil {
		t.Fatal(err)
	}
	args := []Value{expr.I(-1), expr.I(3)} // no match: the scan runs to the end
	var evalErr error
	allocs := testing.AllocsPerRun(20, func() {
		var v Value
		if v, evalErr = f.EvalIO(nil, args); evalErr == nil && v != expr.B(false) {
			evalErr = fmt.Errorf("got %v, want false", v)
		}
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	if allocs > 16 {
		t.Fatalf("one invocation over %d rows allocates %.0f times, want O(1)", rows, allocs)
	}
}

func TestInSubqueryCachingBindings(t *testing.T) {
	db, err := Open(Config{Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("r", []ColumnSpec{{Name: "k"}, {Name: "g"}})
	db.CreateTable("s", []ColumnSpec{{Name: "v"}})
	for i := 0; i < 50; i++ {
		db.Insert("r", i%5, i%2) // only 10 distinct (k,g)… (5 k × 2 g)
	}
	for i := 0; i < 20; i++ {
		db.Insert("s", i)
	}
	db.Analyze("r")
	db.Analyze("s")
	res, err := db.Query("SELECT * FROM r WHERE r.k IN (SELECT v FROM s)", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows != 50 {
		t.Fatalf("rows = %d, want 50 (all k < 20)", res.Stats.Rows)
	}
	// 50 tuples but only 5 distinct bindings: the predicate cache must have
	// absorbed the rest.
	if res.Stats.CacheHits < 40 {
		t.Fatalf("cache hits = %d, want >= 40", res.Stats.CacheHits)
	}
}

func TestFormatComparison(t *testing.T) {
	db := openBench(t, 3, 10)
	algos := []Algorithm{PushDown, Migration}
	results, err := db.CompareAll("SELECT * FROM t3, t10 WHERE t3.ua1 = t10.ua1 AND costly100(t10.u20)", algos...)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatComparison(algos, results)
	if !strings.Contains(out, "PushDown") || !strings.Contains(out, "PredicateMigration") {
		t.Fatalf("missing algorithms:\n%s", out)
	}
	if !strings.Contains(out, "1.00x") {
		t.Fatalf("missing normalized column:\n%s", out)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(Config{Scale: 0.01, Tables: []int{0}}); err == nil {
		t.Fatal("bad table number should fail")
	}
	db, _ := Open(Config{})
	if err := db.CreateTable("x", []ColumnSpec{{Name: "s", String: true}}); err == nil {
		t.Fatal("string without Len should fail")
	}
	if err := db.CreateTable("y", []ColumnSpec{{Name: "s", String: true, Len: 4, Indexed: true}}); err == nil {
		t.Fatal("indexed string should fail")
	}
	db.CreateTable("z", []ColumnSpec{{Name: "a"}})
	if err := db.Insert("z", 1, 2); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if err := db.Insert("z", 3.14); err == nil {
		t.Fatal("bad type should fail")
	}
	if _, err := db.Query("SELECT * FROM nope", PushDown); err == nil {
		t.Fatal("missing table should fail")
	}
	if _, err := db.Query("NOT SQL", PushDown); err == nil {
		t.Fatal("parse error should surface")
	}
}

func TestExplainAnalyze(t *testing.T) {
	db := openBench(t, 3, 9)
	res, err := db.Query("EXPLAIN ANALYZE SELECT * FROM t3, t9 WHERE t3.ua1 = t9.ua1 AND costly100(t9.u20)", Migration)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Explained || res.Rows != nil {
		t.Fatal("EXPLAIN ANALYZE should not return rows")
	}
	if res.Stats.Rows == 0 {
		t.Fatal("EXPLAIN ANALYZE must actually execute")
	}
	if !strings.Contains(res.Plan, "actual=") {
		t.Fatalf("plan missing actual counts:\n%s", res.Plan)
	}
	// The scan nodes' actual counts must equal the table cardinalities.
	t3, _ := db.Catalog().Table("t3")
	if !strings.Contains(res.Plan, "actual="+intToStr(t3.Card)) {
		t.Fatalf("t3 scan actual count missing:\n%s", res.Plan)
	}
}

func intToStr(v int64) string { return strconv.FormatInt(v, 10) }

func TestHistogramImprovesSkewedEstimates(t *testing.T) {
	// Load a skewed user table, ANALYZE it, and check the planner's range
	// selectivity estimate (visible through the plan's estimated cardinality)
	// is close to the truth.
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("skew", []ColumnSpec{{Name: "v"}})
	n := 0
	for i := 0; i < 900; i++ { // 90% of mass below 10
		db.Insert("skew", i%10)
		n++
	}
	for i := 0; i < 100; i++ {
		db.Insert("skew", 10+i*97)
		n++
	}
	if err := db.Analyze("skew"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("EXPLAIN SELECT * FROM skew WHERE skew.v < 10", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	// Without histograms the uniform interpolation would estimate
	// 10/9693 ≈ 0.1% of 1000 = ~1 row; the truth is 900.
	run, err := db.Query("SELECT * FROM skew WHERE skew.v < 10", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.Rows != 900 {
		t.Fatalf("truth check failed: %d rows", run.Stats.Rows)
	}
	if !strings.Contains(res.Plan, "card=9") { // 900±histogram noise prints card=9xx
		t.Fatalf("histogram estimate missing from plan:\n%s", res.Plan)
	}
}

func TestCountStar(t *testing.T) {
	db := openBench(t, 1)
	res, err := db.Query("SELECT COUNT(*) FROM t1 WHERE t1.ua1 < 50", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 50 || res.Cols[0] != "count" {
		t.Fatalf("count = %v cols=%v", res.Rows, res.Cols)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := openBench(t, 1)
	res, err := db.Query("SELECT t1.ua1 FROM t1 WHERE t1.ua1 < 20 ORDER BY t1.ua1 DESC LIMIT 5", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("limit failed: %d rows", len(res.Rows))
	}
	for i, want := range []int64{19, 18, 17, 16, 15} {
		if res.Rows[i][0].I != want {
			t.Fatalf("order wrong at %d: %v", i, res.Rows[i][0])
		}
	}
	// Ascending default, star output.
	res, err = db.Query("SELECT * FROM t1 WHERE t1.ua1 < 10 ORDER BY t1.ua1 LIMIT 3", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	ci := slices.Index(res.Cols, "t1.ua1")
	if ci < 0 || len(res.Rows) != 3 || res.Rows[0][ci].I != 0 || res.Rows[2][ci].I != 2 {
		t.Fatalf("asc order/limit wrong: %v", res.Rows)
	}
}

func TestOrderByErrors(t *testing.T) {
	db := openBench(t, 1)
	if _, err := db.Query("SELECT * FROM t1 ORDER BY nope", PushDown); err == nil {
		t.Fatal("unknown order column should fail")
	}
	if _, err := db.Query("SELECT * FROM t1 LIMIT -3", PushDown); err == nil {
		t.Fatal("negative limit should fail")
	}
}

func TestExecDelete(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("d", []ColumnSpec{{Name: "k", Indexed: true}, {Name: "g"}})
	for i := 0; i < 100; i++ {
		db.Insert("d", i, i%4)
	}
	db.Analyze("d")

	n, err := db.Exec("DELETE FROM d WHERE d.g = 1")
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Fatalf("deleted %d rows, want 25", n)
	}
	res, err := db.Query("SELECT COUNT(*) FROM d", PushDown)
	if err != nil || res.Rows[0][0].I != 75 {
		t.Fatalf("remaining = %v, %v", res.Rows, err)
	}
	// Index must no longer find deleted keys (k=1 had g=1).
	res, err = db.Query("SELECT * FROM d WHERE d.k = 1", PushDown)
	if err != nil || res.Stats.Rows != 0 {
		t.Fatalf("deleted row still indexed: rows=%d", res.Stats.Rows)
	}
	// Surviving rows still indexed.
	res, err = db.Query("SELECT * FROM d WHERE d.k = 2", PushDown)
	if err != nil || res.Stats.Rows != 1 {
		t.Fatalf("surviving row lost: rows=%d", res.Stats.Rows)
	}
	// Delete everything.
	n, err = db.Exec("DELETE FROM d")
	if err != nil || n != 75 {
		t.Fatalf("delete-all: %d, %v", n, err)
	}
	// Errors.
	if _, err := db.Exec("DELETE FROM missing"); err == nil {
		t.Fatal("missing table should fail")
	}
	if _, err := db.Exec("SELECT * FROM d"); err == nil {
		t.Fatal("Exec of SELECT should fail")
	}
}

// TestExecDeleteBudget: a DELETE runs under Config.Budget like a query, and
// one that passes it fails with ErrBudgetExceeded having deleted no row.
func TestExecDeleteBudget(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("d", []ColumnSpec{{Name: "k", Indexed: true}, {Name: "g"}})
	for i := 0; i < 100; i++ {
		db.Insert("d", i, i%4)
	}
	db.Analyze("d")
	db.SetOptions(func(c *Config) { c.Budget = 0.5 })
	if n, err := db.Exec("DELETE FROM d WHERE d.g = 1"); !errors.Is(err, exec.ErrBudgetExceeded) || n != 0 {
		t.Fatalf("DELETE past its budget: deleted %d, err %v; want none and ErrBudgetExceeded", n, err)
	}
	db.SetOptions(func(c *Config) { c.Budget = 0 })
	res, err := db.Query("SELECT COUNT(*) FROM d", PushDown)
	if err != nil || res.Rows[0][0].I != 100 {
		t.Fatalf("after the failed DELETE: %v, %v; want all 100 rows", res.Rows, err)
	}
}

func TestExecDeleteWithExpensivePredicate(t *testing.T) {
	db, err := Open(Config{Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("e", []ColumnSpec{{Name: "k"}, {Name: "v"}})
	for i := 0; i < 60; i++ {
		db.Insert("e", i, i%6)
	}
	db.Analyze("e")
	db.RegisterFunc("expensive_even", 1, 40, 0.5, func(args []Value) Value {
		return Bool(args[0].I%2 == 0)
	})
	// Cheap v=0 filter (sel 1/6) must run before the expensive predicate:
	// with rank ordering, invocations ≤ 10 (the v=0 survivors), not 60.
	n, err := db.Exec("DELETE FROM e WHERE expensive_even(e.k) AND e.v = 0")
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("deleted %d, want 10", n)
	}
	f, _ := db.Catalog().Func("expensive_even")
	if f.Calls() > 10 {
		t.Fatalf("rank ordering not applied to DELETE: %d invocations", f.Calls())
	}
}

// TestArenaCorrelatedIn is internal/exec's TestArenaMatrix for the one plan
// shape only the facade can build: a correlated IN, compiled to a subquery
// UDF, filtering rows that live in the query's recycled slabs (the filter
// sits under a join). The rows a query returned must still read as returned
// after later queries have carved their rows out of the same slabs — under
// the race detector the executor poisons every slab it releases — and must
// be the rows of the width-1 serial run.
func TestArenaCorrelatedIn(t *testing.T) {
	db := openBench(t, 1, 3, 10)
	const sql = `SELECT * FROM t3, t10 WHERE t3.ua1 = t10.ua1 AND t10.ua1 < 400 AND t10.ua1 IN
		(SELECT ua1 FROM t3 WHERE t3.a100 >= t10.a100)`
	canon := func(rows [][]Value) []string {
		out := make([]string, len(rows))
		for i, row := range rows {
			cells := make([]string, len(row))
			for k, v := range row {
				cells[k] = v.String()
			}
			out[i] = strings.Join(cells, "|")
		}
		sort.Strings(out)
		return out
	}
	db.SetOptions(func(c *Config) { c.BatchSize = 1 })
	base, err := db.Query(sql, PushDown) // the subquery filter sits on t10's scan, under the join
	if err != nil {
		t.Fatal(err)
	}
	want := canon(base.Rows)
	if len(want) == 0 || !strings.Contains(base.Plan, "in_t3_") {
		t.Fatalf("want a non-empty result through the subquery predicate, got %d rows:\n%s", len(want), base.Plan)
	}
	for _, caching := range []bool{false, true} {
		for _, p := range []int{1, 4} {
			for _, bs := range []int{1, 7, 256} {
				db.SetOptions(func(c *Config) { c.Caching, c.Parallelism, c.BatchSize = caching, p, bs })
				res, err := db.Query(sql, PushDown)
				if err != nil {
					t.Fatal(err)
				}
				asReturned := canon(res.Rows)
				if _, err := db.Query("SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10", PushDown); err != nil {
					t.Fatal(err)
				}
				got := canon(res.Rows)
				for i := range want {
					if len(got) != len(want) || got[i] != asReturned[i] || got[i] != want[i] {
						t.Fatalf("caching=%v P=%d BS=%d: row %d reads %q, was returned as %q, width-1 serial %q (%d rows, want %d)",
							caching, p, bs, i, got[i], asReturned[i], want[i], len(got), len(want))
					}
				}
			}
		}
	}
}

// TestBindTypeMismatch: a comparison between two types is refused when the
// statement is bound, naming both sides — a column with a string or boolean
// constant (either way round), a join between an int and a string column, an
// IN operand and its subquery's output, and the subquery's own local and
// correlated comparisons, the outer column first or last. (Compare used to
// order mismatched kinds by their type tag, so `t10.a1 < 'x'` kept every
// row.) A NULL constant compares with any type, well-typed comparisons of
// each kind still run, and a subquery's constant-first comparison is flipped
// as the outer WHERE's is.
func TestBindTypeMismatch(t *testing.T) {
	db := openBench(t, 1, 10)
	for _, c := range []struct{ sql, left, right string }{
		{"SELECT * FROM t10 WHERE t10.a1 < 'x'", "t10.a1", `"x"`},
		{"SELECT * FROM t10 WHERE t10.a1 < TRUE", "t10.a1", "true"},
		{"SELECT * FROM t10 WHERE 'x' > t10.a1", "t10.a1", `"x"`},
		{"SELECT * FROM t10 WHERE t10.str = 7", "t10.str", "7"},
		{"SELECT * FROM t1, t10 WHERE t1.a1 = t10.str", "t1.a1", "t10.str"},
		{"SELECT * FROM t10 WHERE t10.a1 IN (SELECT str FROM t1)", "t10.a1", "t1.str"},
		{"SELECT * FROM t10 WHERE t10.a1 IN (SELECT a1 FROM t1 WHERE t1.str < 3)", "t1.str", "3"},
		{"SELECT * FROM t10 WHERE t10.a1 IN (SELECT a1 FROM t1 WHERE t1.str = t10.a10)", "t1.str", "t10.a10"},
		{"SELECT * FROM t10 WHERE t10.a1 IN (SELECT a1 FROM t1 WHERE t10.a10 = t1.str)", "t10.a10", "t1.str"},
	} {
		_, err := db.Query(c.sql, PushDown)
		var mismatch *TypeMismatchError
		if !errors.As(err, &mismatch) {
			t.Fatalf("%s: error %v, want a TypeMismatchError", c.sql, err)
		}
		if mismatch.Left != c.left || mismatch.Right != c.right || mismatch.LeftType == mismatch.RightType {
			t.Fatalf("%s: %+v, want %s against %s", c.sql, *mismatch, c.left, c.right)
		}
	}
	filler := strings.Repeat("x", datagen.FillerLen)
	for _, c := range []struct {
		sql  string
		rows int
	}{
		{"SELECT * FROM t10 WHERE t10.a1 < NULL", 0},
		{"SELECT * FROM t10 WHERE t10.str = NULL", 0},
		{"SELECT * FROM t10 WHERE t10.a1 IN (SELECT a1 FROM t1 WHERE t1.a10 = NULL)", 0},
		{"SELECT * FROM t10 WHERE t10.str = '" + filler + "'", 2000},
		{"SELECT * FROM t10 WHERE t10.str < 'x'", 0},
		{"SELECT * FROM t10 WHERE t10.a1 < 7", 7},
		{"SELECT * FROM t1, t10 WHERE t1.a1 = t10.a1 AND t10.a1 < 5", 5},
		{"SELECT * FROM t10 WHERE t10.a1 IN (SELECT a1 FROM t1 WHERE t1.str = '" + filler + "' AND t1.a1 < 3)", 3},
		{"SELECT * FROM t10 WHERE t10.a1 IN (SELECT a1 FROM t1 WHERE t1.a1 = t10.a1) AND t10.a1 < 5", 5},
	} {
		res, err := db.Query(c.sql, PushDown)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if res.Stats.Rows != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.sql, res.Stats.Rows, c.rows)
		}
	}
	colFirst, err := db.Query("SELECT * FROM t10 WHERE t10.a1 IN (SELECT a1 FROM t1 WHERE t1.a1 < 3)", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	constFirst, err := db.Query("SELECT * FROM t10 WHERE t10.a1 IN (SELECT a1 FROM t1 WHERE 3 > t1.a1)", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if len(colFirst.Rows) != 3 || fmt.Sprint(constFirst.Rows) != fmt.Sprint(colFirst.Rows) {
		t.Fatalf("3 > t1.a1 kept %v, t1.a1 < 3 kept %v", constFirst.Rows, colFirst.Rows)
	}
}
