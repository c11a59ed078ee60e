package harness

import (
	"fmt"
	"sort"
	"strings"

	"predplace"
)

// complexSuite is a set of TPC-D-shaped multi-join queries with expensive
// predicates — the paper's §5 lesson ("benchmarking is absolutely crucial to
// thoroughly debugging a query optimizer... complex query benchmarks such as
// TPC-D are critical debugging tools"). Each query runs under every
// algorithm; the suite asserts the paper's two debugging invariants: all
// plans compute the same answer, and Predicate Migration never does worse
// than the simpler heuristics.
var complexSuite = []struct {
	name string
	sql  string
}{
	{"star-2sel", `SELECT * FROM t1, t3, t10
		WHERE t1.ua1 = t10.ua1 AND t3.ua1 = t10.ua1
		AND costly100(t10.u20) AND costly10(t3.u10)`},
	{"chain-4way", `SELECT * FROM t1, t2, t3, t4
		WHERE t1.ua1 = t2.ua1 AND t2.ua1 = t3.ua1 AND t3.ua1 = t4.ua1
		AND costly100(t2.u20)`},
	{"dup-join-mixed", `SELECT * FROM t2, t4, t6
		WHERE t2.a10 = t4.a10 AND t4.ua1 = t6.ua1
		AND costly10(t4.u10) AND costly1(t6.u100) AND t2.u10 < 10`},
	{"cycle-extra-pred", `SELECT * FROM t1, t2, t3
		WHERE t1.ua1 = t2.ua1 AND t2.ua1 = t3.ua1 AND t1.a10 = t3.a10
		AND costly100(t3.u20)`},
	{"range-and-func", `SELECT * FROM t5, t10
		WHERE t5.ua1 = t10.ua1 AND t10.a1 < 500
		AND costly1000(t5.u100)`},
	{"two-expensive-same-table", `SELECT * FROM t3, t8
		WHERE t3.ua1 = t8.ua1
		AND costly1(t8.u10) AND costly100(t8.u20)`},
}

// ComplexSuite runs the suite and reports per-query relative costs.
func (h *Harness) ComplexSuite() (*Report, error) {
	algos := []predplace.Algorithm{
		predplace.PushDown, predplace.PullUp, predplace.PullRank,
		predplace.Migration, predplace.Exhaustive,
	}
	var b strings.Builder
	var shapes []ShapeCheck
	fmt.Fprintf(&b, "%-26s %-12s", "query", "rows")
	for _, a := range algos {
		fmt.Fprintf(&b, " %12s", shortName(a))
	}
	b.WriteByte('\n')

	for _, cq := range complexSuite {
		h.DB.SetOptions(func(c *predplace.Config) { c.Caching = false })
		results, err := h.DB.CompareAll(cq.sql, algos...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cq.name, err)
		}
		best := -1.0
		rowCounts := map[int]bool{}
		for _, r := range results {
			rowCounts[r.Stats.Rows] = true
			if c := r.Stats.Charged(); best < 0 || c < best {
				best = c
			}
		}
		fmt.Fprintf(&b, "%-26s %-12d", cq.name, results[0].Stats.Rows)
		var mg, ex float64
		for i, r := range results {
			fmt.Fprintf(&b, " %11.2fx", r.Stats.Charged()/best)
			switch algos[i] {
			case predplace.Migration:
				mg = r.Stats.Charged()
			case predplace.Exhaustive:
				ex = r.Stats.Charged()
			default:
				// Only the Migration-vs-Exhaustive gap is asserted below.
			}
		}
		b.WriteByte('\n')
		shapes = append(shapes,
			check(cq.name+": every algorithm computes the same answer",
				len(rowCounts) == 1, "%v row counts", setKeys(rowCounts)),
			check(cq.name+": Migration within 10% of the best heuristic (estimation noise allowance)",
				mg <= best*1.10, "migration=%.0f best=%.0f", mg, best),
			check(cq.name+": Migration within 5% of the exhaustive oracle",
				mg <= ex*1.05, "migration=%.0f exhaustive=%.0f", mg, ex),
		)
	}
	return &Report{
		ID:    "complex",
		Title: "Complex-query debugging suite (paper §5's TPC-D lesson)",
		Text:  b.String(),
		Shape: shapes,
	}, nil
}

func shortName(a predplace.Algorithm) string {
	s := a.String()
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

func setKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
