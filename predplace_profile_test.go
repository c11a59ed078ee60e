package predplace

import (
	"encoding/json"
	"reflect"
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
// list must fail loudly. The executor used to fall back to the un-projected
// plan row layout — an index that means a different column after projection —
// and, when that index landed out of range, silently skipped sorting.
func TestOrderByUnprojectedColumn(t *testing.T) {
	db := openBench(t, 1)
	_, err := db.Query("SELECT t1.ua1 FROM t1 WHERE t1.ua1 < 20 ORDER BY t1.u10", PushDown)
	if err == nil {
		t.Fatal("ORDER BY on unprojected column should fail, not silently skip sorting")
	}
	if !strings.Contains(err.Error(), "ORDER BY") {
		t.Fatalf("error should name the ORDER BY problem: %v", err)
	}
	// The same column ordered within a star projection still works.
	if _, err := db.Query("SELECT * FROM t1 WHERE t1.ua1 < 20 ORDER BY t1.u10", PushDown); err != nil {
		t.Fatalf("star projection covers every column: %v", err)
	}
}

// TestStatsRowsPreLimit pins the documented contract: with top-k execution
// off, Stats.Rows is the executor's pre-LIMIT count and LIMIT truncates only
// Result.Rows; with TopK on, the plan root is a TopK/Limit operator, so
// Stats.Rows counts what the root actually emitted — at most LIMIT rows.
func TestStatsRowsPreLimit(t *testing.T) {
	db := openBench(t, 1)
	const sql = "SELECT * FROM t1 WHERE t1.ua1 < 20 ORDER BY t1.ua1 LIMIT 5"
	res, err := db.Query(sql, PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("LIMIT not applied: %d rows", len(res.Rows))
	}
	if res.Stats.Rows != 20 {
		t.Fatalf("Stats.Rows = %d, want pre-LIMIT 20", res.Stats.Rows)
	}

	db.SetTopK(true)
	defer db.SetTopK(false)
	on, err := db.Query(sql, PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Rows) != 5 {
		t.Fatalf("LIMIT not applied with TopK on: %d rows", len(on.Rows))
	}
	if on.Stats.Rows != 5 {
		t.Fatalf("TopK on: Stats.Rows = %d, want post-limit 5", on.Stats.Rows)
	}
	if !reflect.DeepEqual(on.Rows, res.Rows) {
		t.Fatalf("rows diverge across modes:\n%v\nvs\n%v", on.Rows, res.Rows)
	}
}
