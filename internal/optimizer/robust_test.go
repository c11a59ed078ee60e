package optimizer

import (
	"strings"
	"testing"

	"predplace/internal/plan"
	"predplace/internal/query"
)

// describeTree renders a plan's operators without its estimates. Describe
// prints a filter's selectivity as its predicate carries it now, so two trees
// compare by operators only while the predicates hold one set of estimates.
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

// TestRobustCandidatesStructurallyDistinct: Robust scores each plan once. One
// operator tree planned under two selectivity scalings is one candidate, so
// no two candidates render alike once every predicate is back at its nominal
// estimates.
func TestRobustCandidatesStructurallyDistinct(t *testing.T) {
	db := corpusDB(t)
	for _, s := range corpusStmts() {
		q, _ := bindCorpus(t, db, s.sql)
		if err := query.Analyze(db.Cat, q); err != nil {
			t.Fatal(err)
		}
		opt := New(db.Cat, Options{Algorithm: Robust})
		var err error
		if opt.skel, err = newSkeleton(db.Cat, q); err != nil {
			t.Fatal(err)
		}
		opt.model.Bind(opt.skel.tabs)
		cands, err := opt.robustCandidates(q, DefaultRobustE)
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
