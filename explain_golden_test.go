package predplace_test

// EXPLAIN ANALYZE's text as data. testdata/explain_analyze.golden holds, for
// a fixed list of statements at scale 0.02 and Parallelism 1, the annotated
// plan EXPLAIN ANALYZE prints: per-node estimates, actual rows and error
// factors, a TopK's heap traffic and a Limit's short-circuit at the root, the
// total line, the transfer line and Robust's interval line. Only the total
// line's wall time varies from run to run; it is masked. A change meant to
// alter the text regenerates the file with
//
//	go test -run TestExplainAnalyzeGolden -update .
//
// and the diff is the review artefact.

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"predplace"
	"predplace/internal/harness"
)

const explainGolden = "testdata/explain_analyze.golden"

// wallTime matches the one run-dependent figure of an EXPLAIN ANALYZE text.
var wallTime = regexp.MustCompile(`wall=[0-9.]+ms`)

func TestExplainAnalyzeGolden(t *testing.T) {
	stmts := []struct {
		name string
		sql  string
		algo predplace.Algorithm
		opts func(*predplace.Config)
	}{
		{"query1", harness.Query1, predplace.Migration, nil},
		{"query2", harness.Query2, predplace.Migration, nil},
		{"query3", harness.Query3, predplace.Migration, nil},
		{"query4", harness.Query4, predplace.Migration, nil},
		{"query5-caching", harness.Query5, predplace.Migration, func(c *predplace.Config) { c.Caching = true }},
		{"index-nested-loop", "SELECT * FROM t2, t10 WHERE t2.ua1 < 5 AND t2.ua1 = t10.a1", predplace.Migration, nil},
		{"index-nested-loop-empty", "SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10 AND t10.a100 > 50 AND costly100(t3.ua1)",
			predplace.Migration, nil},
		{"topk-heap", "SELECT * FROM t3 WHERE costly100(t3.u20) ORDER BY t3.ua1 DESC LIMIT 5", predplace.Migration, nil},
		{"limit-short-circuit", "SELECT * FROM t3, t9 WHERE t3.ua1 = t9.ua1 LIMIT 4", predplace.Migration, nil},
		{"transfer", harness.Query4, predplace.Migration, func(c *predplace.Config) { c.Transfer = true }},
		{"robust", harness.Query3, predplace.Robust, nil},
	}
	var out strings.Builder
	for _, s := range stmts {
		cfg := predplace.Config{Scale: 0.02, Parallelism: 1}
		if s.opts != nil {
			s.opts(&cfg)
		}
		db, err := predplace.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query("EXPLAIN ANALYZE "+s.sql, s.algo)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fmt.Fprintf(&out, "== %s\n%s", s.name, wallTime.ReplaceAllString(res.Plan, "wall=*"))
	}
	got := out.String()
	if *updateExecutorGolden {
		if err := os.WriteFile(explainGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(explainGolden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN ANALYZE text differs from %s; got:\n%s", explainGolden, got)
	}
}
