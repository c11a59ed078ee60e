package optimizer

// The plan-identity corpus: a fixed set of statements planned under every
// System R placement leg and knob combination, with the rendered plan, the
// exact root estimates and the planning counters recorded in
// testdata/plans.golden. A planner change that is meant to be a pure
// speed-up must leave the file byte-identical; one that is meant to change
// plans regenerates it with
//
//	go test ./internal/optimizer -run TestPlanCorpus -update
//
// and the diff is the review artefact.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/sqlparse"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner")

const corpusGolden = "testdata/plans.golden"

type corpusStmt struct {
	name, sql string
	fixed     bool // one of the named benchmark statements (not generated)
}

// corpusFixed are plan_only's nine statements (bench/workloads.go: the §4.4
// planning-time query, Queries 4 and 5, harness's complex suite), then
// Queries 1–3 and the §3.1 Figure 1 query (internal/harness/queries.go).
var corpusFixed = []corpusStmt{
	{name: "plantime", sql: `SELECT * FROM t1, t3, t6, t9, t10
		WHERE t1.ua1 = t3.ua1 AND t3.ua1 = t10.ua1 AND t6.a1 = t10.a10 AND t9.a10 = t10.a10
		AND costly100(t1.u20) AND costly100(t3.u20) AND costly10(t9.u10) AND costly10(t10.u10)`},
	{name: "query4", sql: `SELECT * FROM t3, t10, t1
		WHERE t3.ua1 = t10.ua1 AND t10.ua1 = t1.ua1 AND costly100(t3.u20)`},
	{name: "query5", sql: `SELECT * FROM t3, t6, t7, t10
		WHERE t3.ua1 = t10.ua1 AND t6.a1 = t10.a10
		AND costly10join(t3.u20, t7.u20) AND selective100(t3.u10)`},
	{name: "star-2sel", sql: `SELECT * FROM t1, t3, t10
		WHERE t1.ua1 = t10.ua1 AND t3.ua1 = t10.ua1
		AND costly100(t10.u20) AND costly10(t3.u10)`},
	{name: "chain-4way", sql: `SELECT * FROM t1, t2, t3, t4
		WHERE t1.ua1 = t2.ua1 AND t2.ua1 = t3.ua1 AND t3.ua1 = t4.ua1
		AND costly100(t2.u20)`},
	{name: "dup-join-mixed", sql: `SELECT * FROM t2, t4, t6
		WHERE t2.a10 = t4.a10 AND t4.ua1 = t6.ua1
		AND costly10(t4.u10) AND costly1(t6.u100) AND t2.u10 < 10`},
	{name: "cycle-extra-pred", sql: `SELECT * FROM t1, t2, t3
		WHERE t1.ua1 = t2.ua1 AND t2.ua1 = t3.ua1 AND t1.a10 = t3.a10
		AND costly100(t3.u20)`},
	{name: "range-and-func", sql: `SELECT * FROM t5, t10
		WHERE t5.ua1 = t10.ua1 AND t10.a1 < 500
		AND costly1000(t5.u100)`},
	{name: "two-expensive-same-table", sql: `SELECT * FROM t3, t8
		WHERE t3.ua1 = t8.ua1
		AND costly1(t8.u10) AND costly100(t8.u20)`},
	{name: "query1", sql: `SELECT * FROM t3, t9 WHERE t3.ua1 = t9.ua1 AND costly100(t9.u20)`},
	{name: "query2", sql: `SELECT * FROM t10, t9 WHERE t10.ua1 = t9.ua1 AND costly100(t9.u20)`},
	{name: "query3", sql: `SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10 AND costly100(t3.ua1)`},
	{name: "fig1", sql: `SELECT * FROM t1, t10
		WHERE t1.ua1 = t10.u10 AND costly1(t1.u100) AND costly1(t10.u100)`},
}

// corpusTopK are the ORDER BY + LIMIT shapes: bounded heap, ordered index
// scan under a Limit, descending with a projection tie-break, and a join.
var corpusTopK = []corpusStmt{
	{name: "topk-heap", sql: "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.ua1 LIMIT 7"},
	{name: "topk-ordered", sql: "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.a1 LIMIT 10"},
	{name: "topk-desc-proj", sql: "SELECT t1.u10, t1.a1 FROM t1 WHERE t1.u10 < 5 ORDER BY t1.u10 DESC LIMIT 9"},
	{name: "topk-join", sql: "SELECT * FROM t1, t3 WHERE t1.ua1 = t3.ua1 AND costly100(t3.u20) ORDER BY t1.ua1 LIMIT 5"},
	{name: "topk-join-ordered-key", sql: "SELECT * FROM t2, t4 WHERE t2.ua1 = t4.ua1 AND costly10(t4.u10) AND t2.a1 < 90 ORDER BY t2.a1 LIMIT 3"},
}

const corpusRandomQueries = 44

// genCorpusQuery is randomized_test.go's generator widened to 2–5 tables over
// the whole schema: a random join tree over mixed column pairs, an optional
// secondary join predicate, an optional expensive join predicate (sometimes
// the only thing connecting a table), up to three expensive selections, and
// cheap selections that are unindexed, an indexed range, or an indexed
// equality.
func genCorpusQuery(rng *rand.Rand) string {
	nums := rng.Perm(10)
	n := 2 + rng.Intn(4)
	tables := make([]string, n)
	for i := range tables {
		tables[i] = fmt.Sprintf("t%d", nums[i]+1)
	}
	pick := func() string { return tables[rng.Intn(n)] }
	joinCols := [][2]string{{"ua1", "ua1"}, {"ua1", "ua1"}, {"a10", "a10"}, {"a1", "a10"}, {"ua1", "u10"}, {"a1", "ua1"}}

	var preds []string
	for i := 1; i < n; i++ {
		partner := tables[rng.Intn(i)]
		if rng.Intn(6) == 0 {
			preds = append(preds, fmt.Sprintf("costly10join(%s.u20, %s.u20)", partner, tables[i]))
			continue
		}
		jc := joinCols[rng.Intn(len(joinCols))]
		preds = append(preds, fmt.Sprintf("%s.%s = %s.%s", partner, jc[0], tables[i], jc[1]))
	}
	if n >= 3 && rng.Intn(3) == 0 {
		preds = append(preds, fmt.Sprintf("%s.a10 = %s.a10", tables[0], tables[n-1]))
	}
	if rng.Intn(5) == 0 {
		preds = append(preds, fmt.Sprintf("costly100join(%s.u10, %s.u10)", tables[0], tables[1]))
	}
	costs := []string{"costly1", "costly10", "costly100", "costly1000"}
	cols := []string{"u10", "u20", "u100", "ua1"}
	for k := rng.Intn(4); k > 0; k-- {
		preds = append(preds, fmt.Sprintf("%s(%s.%s)", costs[rng.Intn(len(costs))], pick(), cols[rng.Intn(len(cols))]))
	}
	if rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("%s.u10 < %d", pick(), 1+rng.Intn(20)))
	}
	switch rng.Intn(4) {
	case 0:
		preds = append(preds, fmt.Sprintf("%s.a1 < %d", pick(), 20+rng.Intn(400)))
	case 1:
		preds = append(preds, fmt.Sprintf("%s.a10 >= %d", pick(), rng.Intn(40)))
	case 2:
		preds = append(preds, fmt.Sprintf("%s.a100 = %d", pick(), rng.Intn(3)))
	}
	return fmt.Sprintf("SELECT * FROM %s WHERE %s", strings.Join(tables, ", "), strings.Join(preds, " AND "))
}

func corpusStmts() []corpusStmt {
	out := append([]corpusStmt(nil), corpusFixed...)
	for i := range out {
		out[i].fixed = true
	}
	rng := rand.New(rand.NewSource(19930526))
	for i := 0; i < corpusRandomQueries; i++ {
		out = append(out, corpusStmt{name: fmt.Sprintf("rand%02d", i), sql: genCorpusQuery(rng)})
	}
	return out
}

type corpusLeg struct {
	name string
	opts Options
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// corpusLegs lists the option sets one statement is planned under. The
// System R placement algorithms cross Caching × Transfer; topk statements
// cross Caching only. The LDL family and the oracles share orderedPlans and
// FlatPlan.Tree with them, so they ride along where their enumeration stays
// small: LDL-IKKBZ on the fixed statements, the exponential ones up to three
// tables.
func corpusLegs(s corpusStmt, tables int, topk *TopKSpec) []corpusLeg {
	type algoLeg struct {
		name string
		opts Options
	}
	systemR := []algoLeg{
		{"naive", Options{Algorithm: NaivePushDown}},
		{"pushdown", Options{Algorithm: PushDown}},
		{"pullup", Options{Algorithm: PullUp}},
		{"pullrank", Options{Algorithm: PullRank}},
		{"migration", Options{Algorithm: Migration}},
		{"robust", Options{Algorithm: Robust}},
		{"migration-nounpruneable", Options{Algorithm: Migration, DisableUnpruneable: true}},
	}
	var ldl []algoLeg
	if s.fixed || tables <= 3 {
		ldl = append(ldl, algoLeg{"ldl-ikkbz", Options{Algorithm: LDLIKKBZ}})
	}
	if tables <= 3 {
		ldl = append(ldl,
			algoLeg{"ldl", Options{Algorithm: LDL}},
			algoLeg{"exhaustive", Options{Algorithm: Exhaustive}},
			algoLeg{"bushy", Options{Algorithm: ExhaustiveBushy}})
	}
	var out []corpusLeg
	add := func(a algoLeg, caching, transfer bool) {
		o := a.opts
		o.Caching, o.Transfer, o.TopK = caching, transfer, topk
		out = append(out, corpusLeg{
			name: fmt.Sprintf("%s/caching=%s/transfer=%s", a.name, onOff(caching), onOff(transfer)),
			opts: o,
		})
	}
	for _, a := range systemR {
		for _, caching := range []bool{false, true} {
			add(a, caching, false)
			if topk == nil {
				add(a, caching, true)
			}
		}
	}
	for _, a := range ldl {
		add(a, false, false)
		add(a, true, false)
	}
	return out
}

var corpusDBOnce struct {
	sync.Once
	db  *datagen.DB
	err error
}

// corpusDB is the benchmark schema at scale 0.02 plus Query 5's selective100
// (the facade's harness registers it the same way).
func corpusDB(tb testing.TB) *datagen.DB {
	tb.Helper()
	corpusDBOnce.Do(func() {
		db, err := datagen.Build(datagen.Config{Scale: 0.02})
		if err == nil {
			err = db.Cat.RegisterFunc(&expr.FuncDef{
				Name: "selective100", Arity: 1, Cost: 100, Selectivity: 0.1,
				Cacheable: true, Eval: expr.BoolStub(0.1, 424242),
			})
		}
		corpusDBOnce.db, corpusDBOnce.err = db, err
	})
	if corpusDBOnce.err != nil {
		tb.Fatal(corpusDBOnce.err)
	}
	return corpusDBOnce.db
}

// bindCorpus parses and binds one statement, lifting ORDER BY + LIMIT into a
// TopKSpec the way the facade's topkSpec does.
func bindCorpus(tb testing.TB, db *datagen.DB, sql string) (*query.Query, *TopKSpec) {
	tb.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		tb.Fatalf("parse %q: %v", sql, err)
	}
	bound, err := (&sqlparse.Binder{Cat: db.Cat}).Bind(stmt)
	if err != nil {
		tb.Fatalf("bind %q: %v", sql, err)
	}
	if bound.OrderBy == nil || bound.Limit < 1 {
		return bound.Query, nil
	}
	spec := &TopKSpec{Key: bound.OrderBy, Desc: bound.Desc, K: bound.Limit}
	if !bound.Star {
		spec.Tie = bound.Projection
	}
	return bound.Query, spec
}

// corpusEntry is one planned (statement, leg): what the golden file records
// and what the property tests inspect.
type corpusEntry struct {
	name string
	opt  *Optimizer
	root plan.Node
	info *Info
	err  error
}

// forEachCorpusEntry plans every (statement, leg) — every leg whose opts
// keep accepts, when keep is non-nil — with a freshly bound query and a fresh
// optimizer, in a fixed order.
func forEachCorpusEntry(tb testing.TB, keep func(Options) bool, visit func(e corpusEntry)) {
	tb.Helper()
	db := corpusDB(tb)
	for _, s := range append(corpusStmts(), corpusTopK...) {
		q0, topk := bindCorpus(tb, db, s.sql)
		for _, leg := range corpusLegs(s, len(q0.Tables), topk) {
			if keep != nil && !keep(leg.opts) {
				continue
			}
			q, _ := bindCorpus(tb, db, s.sql)
			opt := New(db.Cat, leg.opts)
			root, info, err := opt.Plan(q)
			visit(corpusEntry{name: s.name + "/" + leg.name, opt: opt, root: root, info: info, err: err})
		}
	}
}

// writeCorpusEntry writes one entry as testdata/plans.golden records it.
func writeCorpusEntry(b *strings.Builder, e corpusEntry) {
	fmt.Fprintf(b, "== %s\n", e.name)
	if e.err != nil {
		fmt.Fprintf(b, "error: %v\n", e.err)
		return
	}
	fmt.Fprintf(b, "est cost=%x card=%x\n", e.info.EstCost, e.info.EstCard)
	fmt.Fprintf(b, "info retained=%d unpruneable=%d passes=%d robust_candidates=%d robust_worst=%x topk=%q\n",
		e.info.PlansRetained, e.info.UnpruneableRetained, e.info.MigrationPasses,
		e.info.RobustCandidates, e.info.RobustWorst, e.info.TopKKind)
	b.WriteString(plan.Render(e.root))
}

func TestPlanCorpus(t *testing.T) {
	var b strings.Builder
	lastStmt := ""
	stmtSQL := map[string]string{}
	for _, s := range append(corpusStmts(), corpusTopK...) {
		stmtSQL[s.name] = strings.Join(strings.Fields(s.sql), " ")
	}
	forEachCorpusEntry(t, nil, func(e corpusEntry) {
		if stmt := e.name[:strings.Index(e.name, "/")]; stmt != lastStmt {
			fmt.Fprintf(&b, "# %s: %s\n", stmt, stmtSQL[stmt])
			lastStmt = stmt
		}
		writeCorpusEntry(&b, e)
	})
	got := b.String()
	if *updateCorpus {
		if err := os.MkdirAll(filepath.Dir(corpusGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(corpusGolden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	entry := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			entry = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("plan corpus differs from %s at line %d (%s):\n got: %s\nwant: %s",
				corpusGolden, i+1, entry, gl[i], wl[i])
		}
	}
	t.Fatalf("plan corpus differs from %s in length: got %d lines, want %d", corpusGolden, len(gl), len(wl))
}

// TestPlanCorpusRobustSerial plans the Robust legs of the corpus on one
// processor, where the goroutines of its three estimate scalings run one after
// another in whatever order the scheduler picks: every entry must read as
// testdata/plans.golden records it, so no scaling's plans depend on when its
// goroutine runs.
func TestPlanCorpusRobustSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data, err := os.ReadFile(corpusGolden)
	if err != nil {
		t.Fatal(err)
	}
	// The golden's entries by name, each from its "== " line to the next
	// entry or statement header.
	golden := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			name = strings.TrimSpace(line[3:])
		case strings.HasPrefix(line, "# "):
			name = ""
		}
		if name != "" {
			golden[name] += line
		}
	}
	legs := 0
	forEachCorpusEntry(t, func(o Options) bool { return o.Algorithm == Robust }, func(e corpusEntry) {
		legs++
		var b strings.Builder
		writeCorpusEntry(&b, e)
		if want, ok := golden[e.name]; !ok {
			t.Errorf("%s: not in %s", e.name, corpusGolden)
		} else if got := b.String(); got != want {
			t.Errorf("%s at GOMAXPROCS=1:\n got:\n%s\nwant:\n%s", e.name, got, want)
		}
	})
	if legs == 0 {
		t.Fatal("the corpus has no Robust legs")
	}
}
