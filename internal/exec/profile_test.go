package exec

import (
	"testing"

	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// sameActRows fails unless got and want, profiles of runs of one plan (or
// both nil), agree on every node's actual rows.
func sameActRows(t *testing.T, name string, got, want *OpProfile) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: one run has a profile, the other none", name)
		}
		return
	}
	if g, w := got.ActRows, want.ActRows; g != w {
		t.Fatalf("%s: %s actual=%d, want %d", name, got.Op, g, w)
	}
	for i := range got.Children {
		sameActRows(t, name, got.Children[i], want.Children[i])
	}
}

// profNode finds the OpProfile node whose Op matches, depth-first.
func profNode(p *OpProfile, op string) *OpProfile {
	if p.Op == op {
		return p
	}
	for _, c := range p.Children {
		if got := profNode(c, op); got != nil {
			return got
		}
	}
	return nil
}

// TestProfileIndexNLInnerAttribution: an index-nested-loop join executes its
// inner side through direct B-tree probes — the inner plan nodes are never
// built as iterators. Profiling must still attribute actual row counts to
// them (the historical EXPLAIN ANALYZE "actual=n/a" bug).
func TestProfileIndexNLInnerAttribution(t *testing.T) {
	db, env := newEnv(t, []int{1, 3}, false)
	env.Profile = true
	q, _ := query.NewQuery([]string{"t1", "t3"}, []*query.Predicate{
		{Kind: query.KindJoinCmp, Op: expr.OpEQ,
			Left: query.ColRef{Table: "t1", Col: "a1"}, Right: query.ColRef{Table: "t3", Col: "a1"}},
		{Kind: query.KindSelCmp, Op: expr.OpLT,
			Left: query.ColRef{Table: "t3", Col: "u10"}, Value: expr.I(5)},
	})
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	innerScan := scanNode(t, db.Cat, "t3")
	inner := &plan.Filter{Input: innerScan, Pred: q.Preds[1]}
	j := &plan.Join{Method: plan.IndexNestLoop, Outer: outer, Inner: inner,
		Primary: q.Preds[0], InnerIndexCol: "a1"}
	j.ColRefs = plan.ConcatCols(outer, inner)
	res, err := Run(env, j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows == 0 {
		t.Fatal("expected matches")
	}
	if res.Profile == nil {
		t.Fatal("profiling on but no profile returned")
	}
	// The profile mirrors the plan node for node — including the
	// probe-driven inner chain that was never built as an iterator tree.
	for n, p := range profiles(j, res.Profile) {
		if p.Op != n.Describe() {
			t.Errorf("node %s profiled as %s", n.Describe(), p.Op)
		}
	}
	fp := profNode(res.Profile, inner.Describe())
	if fp == nil {
		t.Fatalf("inner filter missing from profile:\n%+v", res.Profile)
	}
	if fp.ActRows == 0 {
		t.Error("inner residual filter attributed no rows")
	}
	if fp.PredEvals == 0 {
		t.Error("inner residual filter attributed no predicate evaluations")
	}
	sp := profNode(res.Profile, innerScan.Describe())
	if sp == nil || sp.ActRows == 0 {
		t.Errorf("inner base scan rows not attributed: %+v", sp)
	}
	// The probe loop fetches matching tuples then filters: the scan must see
	// at least as many rows as survive the residual.
	if sp.ActRows < fp.ActRows {
		t.Errorf("scan rows %d < filter rows %d", sp.ActRows, fp.ActRows)
	}
	if res.Profile.ActRows != int64(res.Stats.Rows) {
		t.Errorf("root profile rows %d != stats rows %d", res.Profile.ActRows, res.Stats.Rows)
	}
}

// TestProfileNestLoopEmptyOuter: a nested-loop inner under an empty outer is
// never opened; its profile nodes must still exist and report zero.
func TestProfileNestLoopEmptyOuter(t *testing.T) {
	db, env := newEnv(t, []int{1, 2}, false)
	env.Profile = true
	q, _ := query.NewQuery([]string{"t1", "t2"}, []*query.Predicate{
		{Kind: query.KindJoinCmp, Op: expr.OpEQ,
			Left: query.ColRef{Table: "t1", Col: "a1"}, Right: query.ColRef{Table: "t2", Col: "a1"}},
		{Kind: query.KindSelCmp, Op: expr.OpLT,
			Left: query.ColRef{Table: "t1", Col: "ua1"}, Value: expr.I(0)},
	})
	query.Analyze(db.Cat, q)
	outerScan := scanNode(t, db.Cat, "t1")
	outer := &plan.Filter{Input: outerScan, Pred: q.Preds[1]} // ua1 < 0: empty
	innerScan := scanNode(t, db.Cat, "t2")
	j := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: innerScan, Primary: q.Preds[0]}
	j.ColRefs = plan.ConcatCols(outer, innerScan)
	res, err := Run(env, j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rows != 0 {
		t.Fatalf("join should be empty, got %d rows", res.Stats.Rows)
	}
	sp := profNode(res.Profile, innerScan.Describe())
	if sp == nil {
		t.Fatal("unreached inner scan missing from profile")
	}
	if sp.ActRows != 0 || sp.Opens != 0 {
		t.Errorf("unreached inner reports rows=%d opens=%d, want 0/0", sp.ActRows, sp.Opens)
	}
}

// TestProfileObservational: the same plan charges byte-identical cost with
// profiling on and off, and the profile's per-node function charges sum to
// the run's total.
func TestProfileObservational(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	f, err := db.Cat.Func("costly10")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() plan.Node {
		q, _ := query.NewQuery([]string{"t1"}, []*query.Predicate{{
			Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t1", Col: "u10"}},
		}})
		query.Analyze(db.Cat, q)
		return &plan.Filter{Input: scanNode(t, db.Cat, "t1"), Pred: q.Preds[0]}
	}
	plain, err := Run(env, mk())
	if err != nil {
		t.Fatal(err)
	}
	env2 := &Env{Cat: env.Cat, Pool: env.Pool, Cache: env.Cache}
	env2.Profile = true
	prof, err := Run(env2, mk())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Charged() != prof.Stats.Charged() {
		t.Fatalf("profiling changed charged cost: %f vs %f",
			plain.Stats.Charged(), prof.Stats.Charged())
	}
	if plain.Stats.Rows != prof.Stats.Rows {
		t.Fatalf("profiling changed row count: %d vs %d", plain.Stats.Rows, prof.Stats.Rows)
	}
	var chargeSum float64
	var walk func(p *OpProfile)
	walk = func(p *OpProfile) {
		chargeSum += p.FuncCharge
		for _, c := range p.Children {
			walk(c)
		}
	}
	walk(prof.Profile)
	if chargeSum != prof.Stats.FuncCharge {
		t.Fatalf("profile func charges sum to %f, stats say %f", chargeSum, prof.Stats.FuncCharge)
	}
}

// TestProfileErrFactorPerSweep holds each node's error factor, and the
// profile's MaxErr, to what the estimates predict: a nested loop's inner,
// rescanned per outer row, against its per-sweep estimate times the sweeps
// (in a loop nested in another's inner too), and MaxErr leaving out the
// probe-driven inner chain of an index nested loop and what a Limit that
// short-circuited cut off, whose own factors stay as measured.
func TestProfileErrFactorPerSweep(t *testing.T) {
	db, env := newEnv(t, []int{1, 2, 3}, false)
	env.Profile = true
	col := func(tab, c string) query.ColRef { return query.ColRef{Table: tab, Col: c} }
	lt := func(tab string, v int64) *query.Predicate {
		return &query.Predicate{Kind: query.KindSelCmp, Op: expr.OpLT, Left: col(tab, "ua1"), Value: expr.I(v)}
	}
	scan := func(table string) *plan.SeqScan {
		s := scanNode(t, db.Cat, table)
		tab, err := db.Cat.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		s.EstCard = float64(tab.Card)
		return s
	}
	loop := func(outer, inner plan.Node) *plan.Join {
		return &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner,
			ColRefs: plan.ConcatCols(outer, inner), EstCard: outer.Card() * inner.Card()}
	}
	run := func(root plan.Node) *OpProfile {
		t.Helper()
		res, err := Run(env, root)
		if err != nil {
			t.Fatal(err)
		}
		return res.Profile
	}

	// Two nested loops, the second in the first's inner: every estimate is
	// exact once its sweeps are counted.
	t3 := scan("t3")
	innerLoop := loop(&plan.Filter{Input: scan("t2"), Pred: lt("t2", 2), EstCard: 2}, t3)
	root := loop(&plan.Filter{Input: scan("t1"), Pred: lt("t1", 3), EstCard: 3}, innerLoop)
	p := run(root)
	for n, np := range profiles(root, p) {
		if np.ErrFactor != 1 {
			t.Errorf("%s: est=%v actual=%d (×%v), want ×1", n.Describe(), np.EstRows, np.ActRows, np.ErrFactor)
		}
	}
	if np := profiles(root, p)[t3]; np.ActRows != 6*int64(t3.EstCard) {
		t.Fatalf("the inner scan made %d rows over 6 sweeps of %v", np.ActRows, t3.EstCard)
	}

	// An index nested loop: its inner chain's counts are the probes'.
	q, _ := query.NewQuery([]string{"t1", "t3"}, []*query.Predicate{
		{Kind: query.KindJoinCmp, Op: expr.OpEQ, Left: col("t1", "a1"), Right: col("t3", "a1")},
	})
	query.Analyze(db.Cat, q)
	t1, innerScan := scan("t1"), scan("t3")
	inl := &plan.Join{Method: plan.IndexNestLoop, Outer: t1, Inner: innerScan, Primary: q.Preds[0], InnerIndexCol: "a1"}
	inl.ColRefs = plan.ConcatCols(t1, innerScan)
	p = run(inl)
	inl.EstCard = float64(p.ActRows)
	p = run(inl)
	if f := profiles(inl, p)[innerScan].ErrFactor; f == 1 {
		t.Fatalf("the probed inner's factor is ×1: not the case under test")
	}
	if f, at := p.MaxErr(); f != 1 || at == innerScan.Describe() {
		t.Errorf("index nested loop: maxErr ×%v @ %s, want ×1 outside the inner", f, at)
	}

	// A Limit that short-circuits its scan.
	limit := &plan.Limit{Input: scan("t1"), K: 2, EstCard: 2}
	p = run(limit)
	if p.ShortCircuit == 0 || p.Children[0].ErrFactor == 1 {
		t.Fatalf("the limit does not cut its scan off: %+v", p)
	}
	if f, at := p.MaxErr(); f != 1 || at != limit.Describe() {
		t.Errorf("limit: maxErr ×%v @ %s, want ×1 @ the limit", f, at)
	}
}
