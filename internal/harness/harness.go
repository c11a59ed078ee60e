// Package harness defines and runs the reproduction experiments: the
// benchmark queries reconstructed from the paper (Queries 1–5), one runner
// per table and figure of the evaluation, relative-cost reporting in the
// paper's style, and machine-checkable "shape" assertions (who wins, by
// roughly what factor) recorded into EXPERIMENTS.md.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"predplace"
	"predplace/internal/expr"
)

// Harness owns a generated benchmark database and runs experiments on it.
type Harness struct {
	// Scale is the database scale factor (1.0 = the paper's ~110 MB).
	Scale float64
	// DB is the open database (all ten benchmark relations).
	DB *predplace.DB
}

// New builds the benchmark database at the given scale.
func New(scale float64) (*Harness, error) {
	if scale <= 0 {
		scale = 0.05
	}
	db, err := predplace.Open(predplace.Config{Scale: scale})
	if err != nil {
		return nil, err
	}
	// selective100 is Query 5's expensive, highly selective predicate
	// (100 random I/Os per call, selectivity 0.1).
	if err := db.RegisterFunc("selective100", 1, 100, 0.1, expr.BoolStub(0.1, 424242)); err != nil {
		return nil, err
	}
	return &Harness{Scale: scale, DB: db}, nil
}

// Report is one experiment's outcome.
type Report struct {
	// ID is the experiment identifier (e.g. "fig3").
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Text is the printable report body.
	Text string
	// Metrics holds named numeric outcomes for programmatic checks.
	Metrics map[string]float64
	// Shape lists the paper's qualitative claims and whether they held.
	Shape []ShapeCheck
}

// ShapeCheck is one qualitative claim from the paper checked against our
// measurements.
type ShapeCheck struct {
	Claim  string
	Pass   bool
	Detail string
}

// Passed reports whether every shape check held.
func (r *Report) Passed() bool {
	for _, s := range r.Shape {
		if !s.Pass {
			return false
		}
	}
	return true
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n%s", r.ID, r.Title, r.Text)
	if len(r.Shape) > 0 {
		b.WriteString("shape checks:\n")
		for _, s := range r.Shape {
			mark := "PASS"
			if !s.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(&b, "  [%s] %s", mark, s.Claim)
			if s.Detail != "" {
				fmt.Fprintf(&b, " (%s)", s.Detail)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// comparison runs one SQL text under several algorithms, with a DNF budget
// derived from the best-known plan so that runaway plans (Figure 9's PullUp)
// abort instead of running forever, exactly as the paper reports "never
// completed".
type comparison struct {
	algos   []predplace.Algorithm
	results []*predplace.Result
}

// compare runs sql under the given algorithms. budgetFactor, when positive,
// caps each run's charged cost at budgetFactor × the cheapest observed so
// far (the first algorithm runs unbounded to establish the baseline).
func (h *Harness) compare(sql string, caching bool, budgetFactor float64,
	algos ...predplace.Algorithm) (*comparison, error) {
	h.DB.SetCaching(caching)
	defer h.DB.SetBudget(0)
	c := &comparison{algos: algos}
	best := 0.0
	for _, a := range algos {
		if budgetFactor > 0 && best > 0 {
			h.DB.SetBudget(budgetFactor * best)
		} else {
			h.DB.SetBudget(0)
		}
		r, err := h.DB.Query(sql, a)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", a, err)
		}
		c.results = append(c.results, r)
		if !r.DNF {
			charged := r.Stats.Charged()
			if best == 0 || charged < best {
				best = charged
			}
		}
	}
	return c, nil
}

// charged returns the charged cost of the named algorithm's run.
func (c *comparison) charged(a predplace.Algorithm) float64 {
	for i, x := range c.algos {
		if x == a {
			return c.results[i].Stats.Charged()
		}
	}
	return -1
}

// dnf reports whether the named algorithm's run was aborted.
func (c *comparison) dnf(a predplace.Algorithm) bool {
	for i, x := range c.algos {
		if x == a {
			return c.results[i].DNF
		}
	}
	return false
}

// bestCharged returns the minimum charged cost among completed runs.
func (c *comparison) bestCharged() float64 {
	best := -1.0
	for _, r := range c.results {
		if r.DNF {
			continue
		}
		if v := r.Stats.Charged(); best < 0 || v < best {
			best = v
		}
	}
	return best
}

// table renders the comparison in the paper's relative style.
func (c *comparison) table() string {
	return predplace.FormatComparison(c.algos, c.results)
}

// check builds a ShapeCheck from a condition.
func check(claim string, pass bool, detailFmt string, args ...interface{}) ShapeCheck {
	return ShapeCheck{Claim: claim, Pass: pass, Detail: fmt.Sprintf(detailFmt, args...)}
}

// fourAlgos are the algorithms the paper's bar charts compare.
var fourAlgos = []predplace.Algorithm{
	predplace.PushDown, predplace.PullUp, predplace.PullRank, predplace.Migration,
}

// experiments is the one registry, in run order: the paper's tables and
// figures, then the extension experiments. Run, ExperimentIDs, `ppbench
// -list` and its usage text, and the package's tests all read it.
var experiments = []struct {
	id  string
	run func(*Harness) (*Report, error)
}{
	{"table1", (*Harness).Table1},
	{"table2", (*Harness).Table2},
	{"fig1", (*Harness).Fig1PlanTrees},
	{"fig3", (*Harness).Fig3Query1},
	{"fig4", (*Harness).Fig4Query2},
	{"fig5", (*Harness).Fig5Query3},
	{"fig6", (*Harness).Fig6PlanTrees},
	{"fig8", (*Harness).Fig8Query4},
	{"fig9", (*Harness).Fig9Query5},
	{"fig10", (*Harness).Fig10Spectrum},
	{"plantime", (*Harness).PlanTime5Way},
	{"caching", (*Harness).CachingAblation},
	{"ablations", (*Harness).Ablations},
	{"scaling", (*Harness).ScaleStability},
	{"complex", (*Harness).ComplexSuite},
	{"topk", (*Harness).TopKSweep},
	{"transfer", (*Harness).TransferPlacement},
	{"esterror", (*Harness).EstimateError},
}

// ExperimentIDs lists the experiment ids in run order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by id, or every experiment in order for "all".
func (h *Harness) Run(id string) ([]*Report, error) {
	var out []*Report
	for _, e := range experiments {
		if id != "all" && id != e.id {
			continue
		}
		r, err := e.run(h)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.id, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (have: all %s)", id, strings.Join(ExperimentIDs(), " "))
	}
	return out, nil
}

// CanonRows renders a result's rows for comparison across runs. Cells are
// aligned by column name, because a different join order delivers the same
// SELECT * columns in a different order; each cell is its self-delimiting
// key encoding, so (3,5) and (5,3) under the same two names stay distinct.
// Rows keep their delivered order when ordered is set (serial execution and
// ORDER BY output are deterministic) and are sorted otherwise.
func CanonRows(res *predplace.Result, ordered bool) []string {
	byName := make([]int, len(res.Cols))
	for i := range byName {
		byName[i] = i
	}
	sort.SliceStable(byName, func(a, b int) bool { return res.Cols[byName[a]] < res.Cols[byName[b]] })
	out := make([]string, len(res.Rows))
	var buf []byte
	for i, row := range res.Rows {
		buf = buf[:0]
		for _, c := range byName {
			buf = row[c].AppendKey(buf)
		}
		out[i] = string(buf)
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}
