package harness

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"predplace"
	"predplace/internal/expr"
)

// sharedHarness is built once; experiments are read-only over the database.
var sharedHarness *Harness

func getHarness(t *testing.T) *Harness {
	t.Helper()
	if sharedHarness == nil {
		h, err := New(0.02)
		if err != nil {
			t.Fatal(err)
		}
		sharedHarness = h
	}
	return sharedHarness
}

// checked records the experiment ids runAndCheck has run, for
// TestExperimentIndexComplete.
var checked = map[string]bool{}

// runAndCheck runs one registered experiment on the shared harness and
// requires every shape check to hold.
func runAndCheck(t *testing.T, id string) *Report {
	t.Helper()
	reps, err := getHarness(t).Run(id)
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	if !rep.Passed() {
		t.Fatalf("shape checks failed:\n%s", rep)
	}
	if rep.Text == "" || rep.ID != id || rep.Title == "" {
		t.Fatalf("incomplete report, or id %q registered as %q", rep.ID, id)
	}
	checked[id] = true
	return rep
}

func TestTable1(t *testing.T) {
	rep := runAndCheck(t, "table1")
	for _, name := range []string{"PushDown+", "PullUp", "PullRank", "Predicate Migration", "LDL", "Exhaustive"} {
		if !strings.Contains(rep.Text, name) {
			t.Fatalf("Table 1 missing %s:\n%s", name, rep.Text)
		}
	}
}

func TestTable2(t *testing.T) {
	rep := runAndCheck(t, "table2")
	for n := 1; n <= 10; n++ {
		if rep.Metrics["tuples_t"+string(rune('0'+n%10))] < 0 {
			t.Fatal("missing table metric")
		}
	}
	if !strings.Contains(rep.Text, "t10") {
		t.Fatalf("Table 2 missing t10:\n%s", rep.Text)
	}
}

func TestFig1(t *testing.T)  { runAndCheck(t, "fig1") }
func TestFig3(t *testing.T)  { runAndCheck(t, "fig3") }
func TestFig4(t *testing.T)  { runAndCheck(t, "fig4") }
func TestFig5(t *testing.T)  { runAndCheck(t, "fig5") }
func TestFig6(t *testing.T)  { runAndCheck(t, "fig6") }
func TestFig8(t *testing.T)  { runAndCheck(t, "fig8") }
func TestFig9(t *testing.T)  { runAndCheck(t, "fig9") }
func TestFig10(t *testing.T) { runAndCheck(t, "fig10") }

func TestPlanTime(t *testing.T) { runAndCheck(t, "plantime") }
func TestCaching(t *testing.T)  { runAndCheck(t, "caching") }

// TestCanonRowsAlignsByColumn: a join order that delivers the columns the
// other way round compares equal, and a row whose two values are swapped
// under the same names does not. The canonicaliser this one replaced sorted
// the cells inside each row and so accepted the swap.
func TestCanonRowsAlignsByColumn(t *testing.T) {
	row := func(a, b int64) []predplace.Value { return []predplace.Value{expr.I(a), expr.I(b)} }
	want := &predplace.Result{Cols: []string{"t.a", "t.b"}, Rows: [][]predplace.Value{row(3, 5), row(3, 5)}}
	permuted := &predplace.Result{Cols: []string{"t.b", "t.a"}, Rows: [][]predplace.Value{row(5, 3), row(5, 3)}}
	swapped := &predplace.Result{Cols: []string{"t.a", "t.b"}, Rows: [][]predplace.Value{row(3, 5), row(5, 3)}}
	for _, ordered := range []bool{true, false} {
		if !slices.Equal(CanonRows(want, ordered), CanonRows(permuted, ordered)) {
			t.Errorf("ordered=%v: permuted columns compare unequal", ordered)
		}
		if slices.Equal(CanonRows(want, ordered), CanonRows(swapped, ordered)) {
			t.Errorf("ordered=%v: (5,3) compares equal to (3,5)", ordered)
		}
	}
	sortedCells := func(res *predplace.Result) (out []string) {
		for _, r := range res.Rows {
			cells := []string{r[0].String(), r[1].String()}
			sort.Strings(cells)
			out = append(out, strings.Join(cells, "|"))
		}
		return out
	}
	if !slices.Equal(sortedCells(want), sortedCells(swapped)) {
		t.Error("the cell-sorting canonicaliser was expected to accept the swap")
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{ID: "x", Title: "T", Text: "body\n",
		Shape: []ShapeCheck{{Claim: "c", Pass: true}, {Claim: "d", Pass: false, Detail: "why"}}}
	s := rep.String()
	for _, want := range []string{"== x: T ==", "[PASS] c", "[FAIL] d (why)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	if rep.Passed() {
		t.Fatal("Passed should be false")
	}
}

func TestAblations(t *testing.T) { runAndCheck(t, "ablations") }

func TestScaleStability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three databases")
	}
	runAndCheck(t, "scaling")
}

func TestComplexSuite(t *testing.T) { runAndCheck(t, "complex") }

func TestTopKSweep(t *testing.T)         { runAndCheck(t, "topk") }
func TestTransferPlacement(t *testing.T) { runAndCheck(t, "transfer") }
func TestEstimateError(t *testing.T)     { runAndCheck(t, "esterror") }

// TestExperimentIndexComplete holds every registered experiment to its
// shape checks: it runs whichever ids the tests above did not (all of them
// when run alone), so an experiment registered without a test of its own is
// still gated by `go test`.
func TestExperimentIndexComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range ExperimentIDs() {
		if seen[id] {
			t.Fatalf("experiment id %q registered twice", id)
		}
		seen[id] = true
		if !checked[id] {
			runAndCheck(t, id)
		}
	}
	if _, err := getHarness(t).Run("nope"); err == nil {
		t.Fatal("unknown experiment id did not fail")
	}
}
