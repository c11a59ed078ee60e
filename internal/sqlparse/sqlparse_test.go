package sqlparse

import (
	"errors"
	"strings"
	"testing"

	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/query"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT * FROM t3 WHERE t3.ua1 <= 10 AND name = 'ann' -- comment\n;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.kind == tokEOF {
			break
		}
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "*", "FROM", "t3", "WHERE", "t3", ".", "ua1", "<=", "10", "AND", "name", "=", "ann", ";"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Fatalf("lex = %v", texts)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Fatal("unterminated string should fail")
	}
	if _, err := lex("a @ b"); err == nil {
		t.Fatal("bad char should fail")
	}
	if _, err := lex("a ! b"); err == nil {
		t.Fatal("lone ! should fail")
	}
}

func TestParseStar(t *testing.T) {
	s, err := Parse("SELECT * FROM r, s WHERE r.a = s.b AND costly100(r.c)")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Star || len(s.Tables) != 2 || len(s.Where) != 2 {
		t.Fatalf("parse = %+v", s)
	}
	cmp, ok := s.Where[0].(*CmpPred)
	if !ok || cmp.Op != "=" || !cmp.Left.IsCol || cmp.Left.Col.Table != "r" {
		t.Fatalf("first pred = %+v", s.Where[0])
	}
	fn, ok := s.Where[1].(*FuncPred)
	if !ok || fn.Name != "costly100" || len(fn.Args) != 1 {
		t.Fatalf("second pred = %+v", s.Where[1])
	}
}

func TestParseColumnsAndExplain(t *testing.T) {
	s, err := Parse("EXPLAIN SELECT r.a, b FROM r WHERE a < 5;")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Explain || s.Star || len(s.Columns) != 2 {
		t.Fatalf("parse = %+v", s)
	}
	if s.Columns[0].Table != "r" || s.Columns[1].Table != "" {
		t.Fatalf("columns = %+v", s.Columns)
	}
}

func TestParseInSubquery(t *testing.T) {
	s, err := Parse(`SELECT name FROM student WHERE student.mother IN
		(SELECT name FROM professor WHERE professor.dept = student.dept)`)
	if err != nil {
		t.Fatal(err)
	}
	in, ok := s.Where[0].(*InPred)
	if !ok || in.Not || in.Left.Col != "mother" {
		t.Fatalf("in pred = %+v", s.Where[0])
	}
	if len(in.Sub.Tables) != 1 || in.Sub.Tables[0] != "professor" {
		t.Fatalf("subquery = %+v", in.Sub)
	}
	s2, err := Parse("SELECT * FROM r WHERE r.x NOT IN (SELECT y FROM s)")
	if err != nil {
		t.Fatal(err)
	}
	if in2 := s2.Where[0].(*InPred); !in2.Not {
		t.Fatal("NOT IN not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM r WHERE",
		"SELECT * FROM r WHERE a ==",
		"SELECT * FROM r extra",
		"SELECT * FROM r WHERE 5 IN (SELECT x FROM s)",
		"SELECT * FROM r WHERE f(1,",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func testBinder(t *testing.T) (*Binder, *datagen.DB) {
	t.Helper()
	db, err := datagen.Build(datagen.Config{Scale: 0.01, Tables: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return &Binder{Cat: db.Cat}, db
}

func TestBindJoinQuery(t *testing.T) {
	b, _ := testBinder(t)
	s, err := Parse("SELECT * FROM t1, t3 WHERE t1.ua1 = t3.ua1 AND costly100(t3.u20) AND t1.u10 < 3")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := b.Bind(s)
	if err != nil {
		t.Fatal(err)
	}
	q := bound.Query
	if len(q.Tables) != 2 || len(q.Preds) != 3 {
		t.Fatalf("bound = %+v", q)
	}
	if q.Preds[0].Kind != query.KindJoinCmp {
		t.Fatal("join pred kind")
	}
	if q.Preds[1].Kind != query.KindFunc || q.Preds[1].CostPerTuple != 100 {
		t.Fatalf("func pred not analyzed: %+v", q.Preds[1])
	}
	if q.Preds[2].Kind != query.KindSelCmp || q.Preds[2].Selectivity <= 0 {
		t.Fatal("sel pred not analyzed")
	}
}

func TestBindResolvesUnqualified(t *testing.T) {
	b, _ := testBinder(t)
	// ua1 exists in both tables: ambiguous. a1 too. So qualify one side.
	s, _ := Parse("SELECT * FROM t1 WHERE ua1 = 5")
	bound, err := b.Bind(s)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Query.Preds[0].Left.Table != "t1" {
		t.Fatal("unqualified column not resolved")
	}
	s2, _ := Parse("SELECT * FROM t1, t3 WHERE ua1 = 5")
	if _, err := b.Bind(s2); err == nil {
		t.Fatal("ambiguous column should fail")
	}
}

func TestBindErrors(t *testing.T) {
	b, _ := testBinder(t)
	bad := []string{
		"SELECT * FROM missing",
		"SELECT * FROM t1 WHERE t1.nocol = 1",
		"SELECT * FROM t1 WHERE t9.ua1 = 1",
		"SELECT * FROM t1, t1",
		"SELECT * FROM t1 WHERE nosuchfunc(t1.ua1)",
		"SELECT * FROM t1 WHERE costly100(t1.ua1, t1.u10)", // arity
		"SELECT * FROM t1 WHERE t1.ua1 = t1.u10",           // same-table compare
		"SELECT nocol FROM t1",
		"SELECT * FROM t1 WHERE t1.ua1 IN (SELECT ua1 FROM t3)", // no compiler
	}
	for _, src := range bad {
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := b.Bind(s); err == nil {
			t.Errorf("Bind(%q) should fail", src)
		}
	}
}

func TestBindReversedConstantComparison(t *testing.T) {
	b, _ := testBinder(t)
	s, _ := Parse("SELECT * FROM t1 WHERE 5 > t1.ua1")
	bound, err := b.Bind(s)
	if err != nil {
		t.Fatal(err)
	}
	p := bound.Query.Preds[0]
	if p.Op != expr.OpLT || p.Left.Col != "ua1" || p.Value.I != 5 {
		t.Fatalf("flip failed: %+v", p)
	}
}

func TestBindSubqueryCompiler(t *testing.T) {
	b, _ := testBinder(t)
	var gotArgs []query.ColRef
	b.CompileSubquery = func(sub *SelectStmt, not bool, args []query.ColRef) (*expr.FuncDef, error) {
		gotArgs = args
		return expr.NewCostly("in_sub", len(args), 50, 0.3, 1), nil
	}
	s, _ := Parse("SELECT * FROM t1 WHERE t1.ua1 IN (SELECT ua1 FROM t3 WHERE t3.u10 = t1.u10)")
	bound, err := b.Bind(s)
	if err != nil {
		t.Fatal(err)
	}
	p := bound.Query.Preds[0]
	if p.Kind != query.KindFunc || p.CostPerTuple != 50 {
		t.Fatalf("subquery pred = %+v", p)
	}
	// args: lhs + correlated t1.u10
	if len(gotArgs) != 2 || gotArgs[0].Col != "ua1" || gotArgs[1] != (query.ColRef{Table: "t1", Col: "u10"}) {
		t.Fatalf("args = %v", gotArgs)
	}
}

func TestBindProjection(t *testing.T) {
	b, _ := testBinder(t)
	s, _ := Parse("SELECT t1.ua1, t1.u10 FROM t1")
	bound, err := b.Bind(s)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Star || len(bound.Projection) != 2 || bound.Projection[1].Col != "u10" {
		t.Fatalf("projection = %+v", bound.Projection)
	}
}

// TestBindTypeMismatch: a comparison between two types is refused when the
// statement is bound, with both sides named — a column against a string or
// boolean constant, either way round, and a join between an int and a
// string column — while a NULL constant compares with any type.
func TestBindTypeMismatch(t *testing.T) {
	b, _ := testBinder(t)
	for _, c := range []struct{ src, left, right string }{
		{"SELECT * FROM t1 WHERE t1.a1 < 'x'", "t1.a1", `"x"`},
		{"SELECT * FROM t1 WHERE 'x' > t1.a1", "t1.a1", `"x"`},
		{"SELECT * FROM t1 WHERE t1.a1 = TRUE", "t1.a1", "true"},
		{"SELECT * FROM t1 WHERE t1.str = 7", "t1.str", "7"},
		{"SELECT * FROM t1, t3 WHERE t1.a1 = t3.str", "t1.a1", "t3.str"},
		{"SELECT * FROM t1, t3 WHERE t3.str < t1.ua1", "t3.str", "t1.ua1"},
	} {
		s, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		_, err = b.Bind(s)
		var mismatch *TypeMismatchError
		if !errors.As(err, &mismatch) {
			t.Fatalf("%s: error %v, want a TypeMismatchError", c.src, err)
		}
		if mismatch.Left != c.left || mismatch.Right != c.right || mismatch.LeftType == mismatch.RightType {
			t.Fatalf("%s: %+v, want %s against %s", c.src, *mismatch, c.left, c.right)
		}
	}
	for _, src := range []string{
		"SELECT * FROM t1 WHERE t1.a1 < NULL",
		"SELECT * FROM t1 WHERE t1.str = 'x'",
		"SELECT * FROM t1, t3 WHERE t1.a1 = t3.ua1",
	} {
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := b.Bind(s); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
}
