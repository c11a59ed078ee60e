package exec

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"predplace/internal/optimizer"
	"predplace/internal/pcache"
	"predplace/internal/plan"
)

// TestAbsorbedFilterCounts: a cheap filter a scan tests on the record keeps
// what its operator reported — EXPLAIN ANALYZE's actual= for every node and,
// under Profile, every node's predicate evaluations — on server_mix's
// range_udf and index_nl shapes, a root cheap filter, two cheap filters
// stacked under an expensive one, and order_limit's filtered index scan under
// a Limit, at Parallelism 1 and 3 × BatchSize 1, 7 and 256, with Profile off
// and on. shape names the nodes pre-order; rows and evals are their counts in
// that order under Profile, which registers every node (the index nested
// loop's probed inner too, which the executor never builds). Without Profile
// a run keeps no row trace, and every node reads "n/a". The numbers were
// recorded before scans absorbed filters, when every filter was an operator
// of its own.
func TestAbsorbedFilterCounts(t *testing.T) {
	db := figuresDB(t, 0.02)
	for _, st := range []struct{ name, sql, shape, rows, evals string }{
		{"range_udf", `SELECT * FROM t10 WHERE t10.a1 < 300 AND costly1(t10.u100)`,
			"Filter* Filter SeqScan", "200 300 2000", "300 2000 0"},
		{"index_nl", `SELECT * FROM t1, t10 WHERE t1.a1 = t10.a1 AND t1.a10 = 3`,
			"IndexNestLoop Filter SeqScan SeqScan", "10 10 200 10", "0 200 0 0"},
		{"root-cheap", `SELECT * FROM t10 WHERE t10.u10 < 3`,
			"Filter SeqScan", "30 2000", "2000 0"},
		{"stacked-cheap", `SELECT * FROM t10 WHERE t10.a10 < 150 AND t10.u100 < 9 AND costly1(t10.u20)`,
			"Filter* Filter Filter SeqScan", "520 900 1500 2000", "900 1500 2000 0"},
		{"order_limit", `SELECT * FROM t10 WHERE t10.u20 < 70 ORDER BY t10.a1 LIMIT 10`,
			"Limit Filter IndexScan", "10 10 375", "0 375 0"},
	} {
		root := planSQL(t, db.Cat, st.sql, optimizer.Options{Algorithm: optimizer.Migration})
		for _, p := range []int{1, 3} {
			for _, bs := range []int{1, 7, 256} {
				for _, profile := range []bool{false, true} {
					name := fmt.Sprintf("%s P=%d BS=%d profile=%v", st.name, p, bs, profile)
					env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0),
						Parallelism: p, BatchSize: bs, Profile: profile}
					res, err := Run(env, root)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					shape, rows, evals := nodeCounts(root, res)
					if shape != st.shape {
						t.Fatalf("%s: plan %q, want %q", name, shape, st.shape)
					}
					if rows != nodeRowsWant(st.rows, profile) {
						t.Fatalf("%s: actual= %q, want %q", name, rows, nodeRowsWant(st.rows, profile))
					}
					if profile && evals != st.evals {
						t.Fatalf("%s: predicate evaluations %q, want %q", name, evals, st.evals)
					}
					if profile {
						absorbedSelfTime(t, name, env, root, res.Profile)
					}
				}
			}
		}
	}
}

// absorbedSelfTime: the one window that timed a scan and the filters it
// absorbed is what each of them reports, so an absorbed filter's self time
// is zero and its scan's is all of it.
func absorbedSelfTime(t *testing.T, name string, env *Env, root plan.Node, prof *OpProfile) {
	t.Helper()
	of := map[plan.Node]*OpProfile{}
	var walk func(n plan.Node, p *OpProfile)
	walk = func(n plan.Node, p *OpProfile) {
		of[n] = p
		for i, c := range n.Children() {
			walk(c, p.Children[i])
		}
	}
	walk(root, prof)
	if len(env.runs) == 0 {
		t.Fatalf("%s: no scan absorbed a filter", name)
	}
	for n, r := range env.runs {
		if got, want := of[n].WallNs, of[r.top()].WallNs; got != want || want <= 0 {
			t.Fatalf("%s: %s reports %d ns, its run %d ns", name, n.Describe(), got, want)
		}
	}
}

// nodeRowsWant is want, the counts under Profile, as a run reports them:
// without Profile there are none.
func nodeRowsWant(want string, profile bool) string {
	if profile {
		return want
	}
	return strings.TrimSpace(strings.Repeat("n/a ", len(strings.Fields(want))))
}

// nodeCounts renders root's nodes pre-order — their kinds, the rows each
// produced and its predicate evaluations, from the profile (n/a without
// one).
func nodeCounts(root plan.Node, res *Result) (shape, rows, evals string) {
	var s, r, e []string
	var walk func(n plan.Node, p *OpProfile)
	walk = func(n plan.Node, p *OpProfile) {
		s = append(s, strings.Fields(n.Describe())[0])
		if p != nil {
			r = append(r, strconv.FormatInt(p.ActRows, 10))
			e = append(e, strconv.FormatInt(p.PredEvals, 10))
		} else {
			r = append(r, "n/a")
		}
		for i, c := range n.Children() {
			var cp *OpProfile
			if p != nil {
				cp = p.Children[i]
			}
			walk(c, cp)
		}
	}
	walk(root, res.Profile)
	return strings.Join(s, " "), strings.Join(r, " "), strings.Join(e, " ")
}
