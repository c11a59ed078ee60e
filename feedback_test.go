package predplace_test

// Feedback-driven statistics tests: the closed loop must repair a
// deliberately misdeclared selectivity, and feedback off is inert. That
// harvesting never changes an answer and a rerun never charges more is the
// Feedback row of the knob lattice (lattice_test.go).

import (
	"strings"
	"testing"

	"predplace"
	"predplace/internal/expr"
)

// TestFeedbackLoopRepairsPlan closes the loop on a single deliberately
// misdeclared function: the first run executes the misestimate-driven plan
// and harvests the truth, the promotion bumps the catalog version, and the
// second run re-plans onto a strictly cheaper shape.
func TestFeedbackLoopRepairsPlan(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.02, Tables: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Expensive join predicate with accurate metadata; the cheap filter on t3
	// is declared 4× too selective, which flips the join order onto the side
	// that evaluates the expensive predicate over three times as many pairs.
	if err := db.RegisterFunc("fbjoin", 2, 5, 0.3, expr.BoolStub(0.3, 424242321)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterFunc("fbsel", 1, 0, 0.075, expr.BoolStub(0.3, 20260807)); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM t1, t2, t3 WHERE t3.a10 = t1.a10 AND fbsel(t3.ua1) AND fbjoin(t1.u20, t2.u20)"
	db.SetFeedback(true)
	defer db.SetFeedback(false)

	first, err := db.Query(sql, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	stats := db.FeedbackStats()
	if stats.Observations == 0 {
		t.Fatal("first run harvested no observations")
	}
	if stats.Refreshes < 1 {
		t.Fatalf("misestimate (×4) did not trigger a refresh: %+v", stats)
	}
	second, err := db.Query(sql, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plan == second.Plan {
		t.Fatalf("refresh did not re-plan; plan:\n%s", first.Plan)
	}
	c1, c2 := first.Stats.Charged(), second.Stats.Charged()
	if c2 >= c1 {
		t.Fatalf("repaired plan did not get cheaper: %v -> %v", c1, c2)
	}
	if first.Stats.Rows != second.Stats.Rows {
		t.Fatalf("re-plan changed the answer: %d -> %d rows", first.Stats.Rows, second.Stats.Rows)
	}
}

// TestFeedbackSkipsCutOffStream: a Limit root that stopped pulling left its subtree mid-stream, like a
// DNF, and is not harvested; the same statement under a LIMIT it never reaches ran to the end, and is.
func TestFeedbackSkipsCutOffStream(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{1}, Feedback: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []string{"3", "1000"} {
		if _, err := db.Query("SELECT * FROM t1 WHERE costly10(t1.u10) LIMIT "+limit, predplace.Migration); err != nil {
			t.Fatal(err)
		}
		if stats := db.FeedbackStats(); (stats.Observations > 0) != (limit == "1000") {
			t.Fatalf("LIMIT %s: harvest must skip exactly the stream the LIMIT cut off: %+v", limit, stats)
		}
	}
}

// TestFeedbackOffIsInert pins the default: with Config.Feedback unset, running
// queries accumulates no observations and never touches the catalog version.
func TestFeedbackOffIsInert(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if db.Feedback() {
		t.Fatal("feedback must default off")
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Query("SELECT * FROM t1, t2 WHERE t1.ua1 = t2.ua1 AND costly10(t1.u10)", predplace.Migration); err != nil {
			t.Fatal(err)
		}
	}
	if stats := db.FeedbackStats(); stats.Observations != 0 || stats.Refreshes != 0 {
		t.Fatalf("feedback off still observed: %+v", stats)
	}
}

// TestRobustExplainSummary pins the EXPLAIN surface: Robust plans carry the
// error-interval summary line, all other algorithms render byte-identically
// to their pre-robust output (no trailing summary).
func TestRobustExplainSummary(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM t1, t2 WHERE t1.ua1 = t2.ua1 AND costly100(t1.u10)"
	res, err := db.Query("EXPLAIN "+sql, predplace.Robust)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "robust interval=[sel/4, sel×4]") {
		t.Fatalf("Robust EXPLAIN missing summary line:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "candidates=") {
		t.Fatalf("Robust EXPLAIN missing candidate count:\n%s", res.Plan)
	}
	db.SetRobustE(8)
	res, err = db.Query("EXPLAIN "+sql, predplace.Robust)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "robust interval=[sel/8, sel×8]") {
		t.Fatalf("SetRobustE(8) not reflected in EXPLAIN:\n%s", res.Plan)
	}
	for _, algo := range []predplace.Algorithm{predplace.PushDown, predplace.Migration} {
		res, err := db.Query("EXPLAIN "+sql, algo)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(res.Plan, "robust interval") {
			t.Fatalf("%v EXPLAIN carries robust summary:\n%s", algo, res.Plan)
		}
	}
}
