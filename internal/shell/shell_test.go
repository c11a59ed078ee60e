package shell

import (
	"strings"
	"testing"

	"predplace"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return New(db)
}

func run(t *testing.T, s *Session, line string) (string, bool) {
	t.Helper()
	var b strings.Builder
	cont := s.Execute(line, &b)
	return b.String(), cont
}

func TestQuit(t *testing.T) {
	s := newSession(t)
	for _, q := range []string{`\q`, "quit", "exit"} {
		if _, cont := run(t, s, q); cont {
			t.Fatalf("%q should end the session", q)
		}
	}
	if _, cont := run(t, s, ""); !cont {
		t.Fatal("empty line should continue")
	}
}

func TestAlgoSwitch(t *testing.T) {
	s := newSession(t)
	out, _ := run(t, s, `\algo pullup`)
	if s.Algo != predplace.PullUp || !strings.Contains(out, "PullUp") {
		t.Fatalf("algo switch failed: %q algo=%v", out, s.Algo)
	}
	out, _ = run(t, s, `\algo bogus`)
	if !strings.Contains(out, "migration") || s.Algo != predplace.PullUp {
		t.Fatalf("bad algo should list options and keep current: %q", out)
	}
	// Every published name resolves.
	for name := range AlgoNames {
		if _, cont := run(t, s, `\algo `+name); !cont {
			t.Fatalf("algo %s ended session", name)
		}
	}
}

func TestTablesAndFuncs(t *testing.T) {
	s := newSession(t)
	out, _ := run(t, s, `\tables`)
	if !strings.Contains(out, "t1") || !strings.Contains(out, "t3") {
		t.Fatalf("tables output: %q", out)
	}
	if !strings.Contains(out, "a1") {
		t.Fatalf("tables should list indexes: %q", out)
	}
	out, _ = run(t, s, `\funcs`)
	if !strings.Contains(out, "costly100") {
		t.Fatalf("funcs output: %q", out)
	}
}

func TestCachingToggle(t *testing.T) {
	s := newSession(t)
	out, _ := run(t, s, `\caching on`)
	if !strings.Contains(out, "true") {
		t.Fatalf("caching on: %q", out)
	}
	out, _ = run(t, s, `\caching off`)
	if !strings.Contains(out, "false") {
		t.Fatalf("caching off: %q", out)
	}
}

func TestTransferToggle(t *testing.T) {
	s := newSession(t)
	out, _ := run(t, s, `\transfer on`)
	if !strings.Contains(out, "true") {
		t.Fatalf("transfer on: %q", out)
	}
	if !s.DB.Transfer() {
		t.Fatal("transfer not enabled on DB")
	}
	out, _ = run(t, s, `\transfer off`)
	if !strings.Contains(out, "false") {
		t.Fatalf("transfer off: %q", out)
	}
}

func TestRunQuery(t *testing.T) {
	s := newSession(t)
	out, _ := run(t, s, "SELECT * FROM t1 WHERE t1.ua1 < 3")
	if !strings.Contains(out, "3 rows;") {
		t.Fatalf("query output: %q", out)
	}
	if !strings.Contains(out, "t1.ua1") {
		t.Fatalf("missing header: %q", out)
	}
}

func TestRowCap(t *testing.T) {
	s := newSession(t)
	s.MaxRows = 5
	out, _ := run(t, s, "SELECT * FROM t1")
	if !strings.Contains(out, "more rows)") {
		t.Fatalf("row cap not applied: %q", out)
	}
}

func TestExplain(t *testing.T) {
	s := newSession(t)
	out, _ := run(t, s, "EXPLAIN SELECT * FROM t1, t3 WHERE t1.ua1 = t3.ua1 AND costly100(t3.u20)")
	if !strings.Contains(out, "Filter*") || !strings.Contains(out, "estimated cost") {
		t.Fatalf("explain output: %q", out)
	}
	if strings.Contains(out, "rows;") {
		t.Fatal("EXPLAIN must not execute")
	}
}

func TestCompare(t *testing.T) {
	s := newSession(t)
	out, _ := run(t, s, "COMPARE SELECT * FROM t1, t3 WHERE t1.ua1 = t3.ua1 AND costly100(t3.u20)")
	if !strings.Contains(out, "PredicateMigration") || !strings.Contains(out, "relative") {
		t.Fatalf("compare output: %q", out)
	}
}

func TestErrorsSurface(t *testing.T) {
	s := newSession(t)
	out, _ := run(t, s, "SELECT * FROM missing")
	if !strings.Contains(out, "error:") {
		t.Fatalf("error not surfaced: %q", out)
	}
	out, _ = run(t, s, "NOT SQL AT ALL")
	if !strings.Contains(out, "error:") {
		t.Fatalf("parse error not surfaced: %q", out)
	}
}

func TestHelp(t *testing.T) {
	s := newSession(t)
	out, _ := run(t, s, `\help`)
	for _, want := range []string{`\algo`, `\tables`, "COMPARE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("help missing %q: %q", want, out)
		}
	}
}

func TestDNFReported(t *testing.T) {
	s := newSession(t)
	s.DB.SetBudget(10)
	out, _ := run(t, s, "SELECT * FROM t1, t3 WHERE t1.ua1 = t3.ua1 AND costly1000(t3.u20)")
	if !strings.Contains(out, "aborted") {
		t.Fatalf("DNF not reported: %q", out)
	}
	s.DB.SetBudget(0)
}

func TestSaveOpenCommands(t *testing.T) {
	s := newSession(t)
	path := t.TempDir() + "/snap.ppdb"
	out, _ := run(t, s, `\save `+path)
	if !strings.Contains(out, "saved to") {
		t.Fatalf("save failed: %q", out)
	}
	out, _ = run(t, s, `\open `+path)
	if !strings.Contains(out, "opened") {
		t.Fatalf("open failed: %q", out)
	}
	out, _ = run(t, s, "SELECT COUNT(*) FROM t1")
	if !strings.Contains(out, "1 rows;") {
		t.Fatalf("query after open: %q", out)
	}
	out, _ = run(t, s, `\open /nonexistent.ppdb`)
	if !strings.Contains(out, "error:") {
		t.Fatalf("bad open should error: %q", out)
	}
}

func TestDeleteStatement(t *testing.T) {
	s := newSession(t)
	out, _ := run(t, s, "DELETE FROM t1 WHERE t1.ua1 < 10")
	if !strings.Contains(out, "10 rows deleted") {
		t.Fatalf("delete output: %q", out)
	}
	out, _ = run(t, s, "SELECT COUNT(*) FROM t1")
	if !strings.Contains(out, "90") {
		t.Fatalf("count after delete: %q", out)
	}
	out, _ = run(t, s, "DELETE FROM nope")
	if !strings.Contains(out, "error:") {
		t.Fatalf("bad delete: %q", out)
	}
}
