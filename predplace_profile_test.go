package predplace

import (
	"encoding/json"
	"strings"
	"testing"
)

// profileMatrixQueries exercise the legs EXPLAIN ANALYZE must attribute: a
// plain expensive filter over a join, and the index-nested-loop shape whose
// inner chain is probe-driven.
var profileMatrixQueries = []string{
	"SELECT * FROM t3, t9 WHERE t3.ua1 = t9.ua1 AND costly100(t9.u20)",
	"SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10 AND t10.a100 > 50 AND costly100(t3.ua1)",
}

// analyzeTree returns an EXPLAIN ANALYZE plan with its summary line (which
// carries run-dependent wall time) stripped, leaving only the per-node tree.
func analyzeTree(t *testing.T, plan string) string {
	t.Helper()
	var keep []string
	for _, line := range strings.Split(plan, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "total:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestExplainAnalyzeTraceAgreement: EXPLAIN ANALYZE must report identical
// per-node actual counts across executor configurations (serial, parallel,
// tuple-at-a-time, batched) and never print actual=n/a — including for an
// index-nested-loop plan whose inner chain executes via B-tree probes.
func TestExplainAnalyzeTraceAgreement(t *testing.T) {
	db := openBench(t, 3, 9, 10)
	for _, sql := range profileMatrixQueries {
		var baseTree string
		for _, par := range []int{1, 4} {
			for _, bs := range []int{1, 256} {
				db.SetParallelism(par)
				db.SetBatchSize(bs)
				res, err := db.Query("EXPLAIN ANALYZE "+sql, Migration)
				db.SetParallelism(1)
				db.SetBatchSize(0)
				if err != nil {
					t.Fatalf("P=%d BS=%d: %v", par, bs, err)
				}
				if strings.Contains(res.Plan, "n/a") {
					t.Fatalf("P=%d BS=%d: plan has unattributed nodes:\n%s", par, bs, res.Plan)
				}
				if !strings.Contains(res.Plan, "est=") || !strings.Contains(res.Plan, "(×") {
					t.Fatalf("P=%d BS=%d: plan missing est/err annotations:\n%s", par, bs, res.Plan)
				}
				if res.Profile == nil {
					t.Fatalf("P=%d BS=%d: EXPLAIN ANALYZE returned no profile", par, bs)
				}
				tree := analyzeTree(t, res.Plan)
				if baseTree == "" {
					baseTree = tree
					continue
				}
				if tree != baseTree {
					t.Fatalf("P=%d BS=%d: actual counts diverge from serial:\n%s\nvs baseline:\n%s",
						par, bs, tree, baseTree)
				}
			}
		}
	}
}

// TestResultProfileJSON: the structured profile marshals cleanly (no ±Inf
// leaks past ErrFactorCap) and reflects the plan shape.
func TestResultProfileJSON(t *testing.T) {
	db := openBench(t, 3, 10)
	db.SetProfile(true)
	defer db.SetProfile(false)
	// The a100 > 50 range is empty at this scale: the profile must still
	// cover every node, with the impossible estimate capped, not infinite.
	res, err := db.Query(
		"SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10 AND t10.a100 > 50 AND costly100(t3.ua1)",
		Migration)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("SetProfile(true) but Result.Profile nil")
	}
	buf, err := json.Marshal(res.Profile)
	if err != nil {
		t.Fatalf("profile does not marshal: %v", err)
	}
	if !strings.Contains(string(buf), `"actual_rows"`) {
		t.Fatalf("profile JSON missing actual_rows: %s", buf)
	}
	var count func(*OpProfile) int
	count = func(p *OpProfile) int {
		n := 1
		for _, c := range p.Children {
			n += count(c)
		}
		return n
	}
	if count(res.Profile) < 2 {
		t.Fatalf("profile tree too small: %s", buf)
	}
}

// TestOrderByUnprojectedColumn: ORDER BY naming a column outside the SELECT
// list must fail loudly, and at plan time — from Prepare, Explain and EXPLAIN
// as from Query — so that nothing is executed and charged first.
func TestOrderByUnprojectedColumn(t *testing.T) {
	db := openBench(t, 1)
	const bad = "SELECT t1.ua1 FROM t1 WHERE t1.ua1 < 20 ORDER BY t1.u10"
	const want = "predplace: ORDER BY column t1.u10 is not in the select list"
	_, queryErr := db.Query(bad, PushDown)
	_, prepareErr := db.Prepare(bad, PushDown)
	_, explainErr := db.Explain(bad, PushDown)
	_, stmtErr := db.Query("EXPLAIN "+bad, PushDown)
	for entry, err := range map[string]error{"Query": queryErr, "Prepare": prepareErr, "Explain": explainErr, "EXPLAIN": stmtErr} {
		if err == nil || err.Error() != want {
			t.Fatalf("%s: ORDER BY on unprojected column should fail with %q, not silently skip sorting: %v", entry, want, err)
		}
	}
	// The same column ordered within a star projection still works.
	if _, err := db.Query("SELECT * FROM t1 WHERE t1.ua1 < 20 ORDER BY t1.u10", PushDown); err != nil {
		t.Fatalf("star projection covers every column: %v", err)
	}
}
