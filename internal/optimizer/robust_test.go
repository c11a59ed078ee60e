package optimizer

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"predplace/internal/catalog"
	"predplace/internal/cost"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// describeTree renders a plan's operators without its estimates. Describe
// prints a filter's selectivity as its predicate carries it — the nominal
// estimate, whatever scaling the plan was priced under.
func describeTree(n plan.Node) string {
	var b strings.Builder
	var walk func(plan.Node, int)
	walk = func(n plan.Node, depth int) {
		b.WriteString(strings.Repeat(" ", depth))
		b.WriteString(n.Describe())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// robustOptimizer is a Robust optimizer set up as Plan sets it up for q, an
// analyzed query, short of analyzing it again (Analyze writes every
// predicate's estimates).
func robustOptimizer(t *testing.T, cat *catalog.Catalog, q *query.Query) *Optimizer {
	t.Helper()
	return optimizerFor(t, cat, q, Options{Algorithm: Robust})
}

// optimizerFor is robustOptimizer under opts, the transfer estimate included.
func optimizerFor(t *testing.T, cat *catalog.Catalog, q *query.Query, opts Options) *Optimizer {
	t.Helper()
	opt := New(cat, opts)
	var err error
	if opt.skel, err = newSkeleton(cat, q); err != nil {
		t.Fatal(err)
	}
	opt.model.Bind(opt.skel.tabs)
	if opts.Transfer {
		if opt.model.Transfer, err = cost.ComputeTransfer(cat, q, opts.Caching); err != nil {
			t.Fatal(err)
		}
	}
	return opt
}

// TestRobustMatchesFullSpectrum: the ÷e scaling plans one enumeration —
// PullRank's DP, finished as PullRank and as Migration without unpruneable
// retention — where ×1 and ×e plan the four-algorithm spectrum. Over every
// corpus statement, caching and transfer on and off and interval widths from
// 1.25 to 16, Robust chooses what it chooses when ÷e plans the spectrum too:
// the same operators, the same nominal cost and the same worst case.
func TestRobustMatchesFullSpectrum(t *testing.T) {
	db := corpusDB(t)
	for _, s := range append(corpusStmts(), corpusTopK...) {
		q, topk := bindCorpus(t, db, s.sql)
		for _, caching := range []bool{false, true} {
			for _, transfer := range []bool{false, true} {
				for _, e := range []float64{1.25, 1.5, 2, 4, 8, 16} {
					opts := Options{Algorithm: Robust, Caching: caching, Transfer: transfer, TopK: topk, RobustE: e}
					opt := optimizerFor(t, db.Cat, q, opts)
					root, info, err := opt.planRobust(q)
					if err != nil {
						t.Fatalf("%s: %v", s.name, err)
					}
					got := fmt.Sprintf("cost=%x worst=%x\n%s", root.Cost(), info.RobustWorst, describeTree(root))
					full, err := opt.robustCandidates(q, e, (*robustScaling).spectrum)
					if err != nil {
						t.Fatalf("%s: %v", s.name, err)
					}
					if root, info, err = opt.mostRobust(full, e); err != nil {
						t.Fatalf("%s: %v", s.name, err)
					}
					if want := fmt.Sprintf("cost=%x worst=%x\n%s", root.Cost(), info.RobustWorst, describeTree(root)); got != want {
						t.Errorf("%s, caching %v, transfer %v, e=%g: Robust chose\n%s\nthe full spectrum at ÷e chooses\n%s",
							s.name, caching, transfer, e, got, want)
					}
				}
			}
		}
	}
}

// TestRobustCandidatesStructurallyDistinct: Robust scores each plan once. One
// operator tree planned under two selectivity scalings is one candidate, so
// no two candidates render alike.
func TestRobustCandidatesStructurallyDistinct(t *testing.T) {
	db := corpusDB(t)
	for _, s := range corpusStmts() {
		q, _ := bindCorpus(t, db, s.sql)
		cands, err := robustOptimizer(t, db.Cat, q).robustCandidates(q, DefaultRobustE, (*robustScaling).pullRankAndMigrated)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		first := map[string]int{}
		for i, c := range cands {
			shape := describeTree(c.root)
			if j, dup := first[shape]; dup {
				t.Errorf("%s: candidates %d and %d run the same operators:\n%s", s.name, j, i, shape)
				continue
			}
			first[shape] = i
		}
	}
}

// estimateBits is every predicate's selectivity and per-tuple cost, bit for
// bit.
func estimateBits(q *query.Query) [][2]uint64 {
	var out [][2]uint64
	for _, p := range q.Preds {
		out = append(out, [2]uint64{math.Float64bits(p.Selectivity), math.Float64bits(p.CostPerTuple)})
	}
	return out
}

// TestRobustLeavesPredicatesUntouched: Robust prices its estimate scalings
// and error-box corners on scaled cost models, so a planning leaves every
// predicate's estimates as Analyze set them — over the corpus, and when the
// planning fails: a 13-way join before any scaling runs, and a query whose
// last table the model cannot price after each scaling has priced the other
// tables' access paths (dup's selectivity, 1.25, is what a scaled model
// clamps).
func TestRobustLeavesPredicatesUntouched(t *testing.T) {
	db := corpusDB(t)
	for _, s := range append(corpusStmts(), corpusTopK...) {
		for _, caching := range []bool{false, true} {
			q, topk := bindCorpus(t, db, s.sql)
			before := estimateBits(q)
			if _, _, err := New(db.Cat, Options{Algorithm: Robust, Caching: caching, TopK: topk}).Plan(q); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if after := estimateBits(q); !slices.Equal(after, before) {
				t.Errorf("%s, caching %v: estimates %x before planning, %x after", s.name, caching, before, after)
			}
		}
	}

	wideQuery := func(cat *catalog.Catalog, n int) *query.Query {
		dup, err := cat.Func("dup")
		if err != nil {
			t.Fatal(err)
		}
		var tables []string
		preds := []*query.Predicate{{Kind: query.KindFunc, Func: dup, Args: []query.ColRef{{Table: "w0", Col: "k"}}}}
		for i := 0; i < n; i++ {
			tables = append(tables, fmt.Sprintf("w%d", i))
			if i > 0 {
				preds = append(preds, jp(tables[i-1], "k", tables[i], "k"))
			}
		}
		q, err := query.NewQuery(tables, preds)
		if err != nil {
			t.Fatal(err)
		}
		if err := query.Analyze(cat, q); err != nil {
			t.Fatal(err)
		}
		return q
	}
	cat := wideCatalog(t, 13)
	q := wideQuery(cat, 13)
	before := estimateBits(q)
	if _, _, err := New(cat, Options{Algorithm: Robust}).Plan(q); err == nil {
		t.Fatal("a 13-way join planned; the test needs Robust to fail")
	}
	if after := estimateBits(q); !slices.Equal(after, before) {
		t.Errorf("13-way join: estimates %x before the failed planning, %x after", before, after)
	}

	// The model prices from a catalog without w3, bound to the other three
	// tables: each scaling's access paths fail at w3.
	q = wideQuery(cat, 4)
	before = estimateBits(q)
	opt := robustOptimizer(t, cat, q)
	opt.model = cost.NewModel(wideCatalog(t, 3), false)
	opt.model.Bind(opt.skel.tabs[:3])
	if _, _, err := opt.planRobust(q); err == nil || !strings.Contains(err.Error(), "w3") {
		t.Fatalf("planning with w3 unpriceable returned %v, want an error naming w3", err)
	}
	if after := estimateBits(q); !slices.Equal(after, before) {
		t.Errorf("failed generation: estimates %x before, %x after", before, after)
	}
}

// TestRobustConcurrentPlannings: planning writes no predicate, so two Robust
// plannings of one bound query may run at once — the race detector sees
// both, each with its three scalings' goroutines — and each gets the plan a
// planning alone gets.
func TestRobustConcurrentPlannings(t *testing.T) {
	db := corpusDB(t)
	for _, s := range corpusFixed {
		q, _ := bindCorpus(t, db, s.sql)
		render := func(opt *Optimizer) (string, error) {
			root, info, err := opt.planRobust(q)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("worst=%x candidates=%d\n%s", info.RobustWorst, info.RobustCandidates, plan.Render(root)), nil
		}
		alone, err := render(robustOptimizer(t, db.Cat, q))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		var (
			got  [2]string
			errs [2]error
			wg   sync.WaitGroup
		)
		for i := range got {
			opt := robustOptimizer(t, db.Cat, q)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = render(opt)
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Errorf("%s: planning %d: %v", s.name, i, errs[i])
			} else if got[i] != alone {
				t.Errorf("%s: planning %d of two at once:\n%s\nalone:\n%s", s.name, i, got[i], alone)
			}
		}
	}
}
