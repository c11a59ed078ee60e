package predplace_test

// The knob lattice — the mechanized version of the paper's own debugging
// method (§5): "bugs were exposed by running the same query under the
// various different optimization heuristics, and comparing the estimated
// costs and running times of the resulting plans." One corpus, one table
// with a row per execution knob, one runner: every statement runs at seeded
// points of the lattice, once with the row's knob at its baseline and once
// with it moved, and the row's contract says what may differ.

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"predplace"
	"predplace/internal/harness"
)

// contract is what a row promises of one measurement against the baseline.
type contract int

const (
	free               contract = iota // may differ
	identical                          // bit for bit
	atMostSameShape                    // variant ≤ baseline when both ran the same plan shape
	atMostNetSameShape                 // … each net of the transfer overhead it reports
)

// point assigns a value to every knob, keyed by knobRow.knob.
type point map[string]int

// knobRow is one execution knob's contract against the same point with that
// knob at base.
type knobRow struct {
	// knob is the predplace.Config field's name; Algorithm is Query's
	// argument.
	knob   string
	base   int
	values []int // the non-baseline values; booleans are 0 and 1
	// all runs every value at each point, in order, instead of one sampled
	// value; pinned keeps the knob at base while another row's knob moves;
	// fresh gives the row databases of its own.
	all, pinned, fresh bool
	// ordered: rows arrive in the baseline's order wherever order is defined
	// (serial execution, or ORDER BY); otherwise the row multisets are equal.
	ordered bool
	// charged and inv constrain Stats.Charged() and each function's
	// invocation count. Neither is checked at a point with Parallelism > 1
	// and Caching on: concurrent misses on one binding may each invoke the
	// function (DESIGN.md §11), so that corner holds rows only.
	charged, inv contract
	// also checks what the three columns cannot say; want ran at base and
	// got[i] at base with the knob at values[i]. It returns its complaints.
	also func(base point, want *predplace.Result, got []*predplace.Result) []string
}

// knobRows is the contract table. Every per-statement field of
// predplace.Config is a row here or an entry of notAxes (TestKnobCoverage),
// so a new knob ships with its contract.
//
// Coverage map — what each deleted test and ppbench leg asserted, and the
// row (or remaining test) that asserts it now:
//
//	TestRandomizedBatchAgreement, ppbench -batch: width w against width 1 —
//	  same rows in order, charged and per-function invocations identical,
//	  caching on and off; w × parallel — same multiset, charged identical
//	  with caching off .......................... BatchSize (every point);
//	  exhaustively at the golden points: TestExecutorGolden
//	TestParallelMatchesSerialRandomized, ppbench -parallel and its harness
//	  test: same multiset, charged bit-identical and invocations identical
//	  with caching off .......................... Parallelism, and the
//	  parallel leg of TestExecutorGolden (which now checks invocations too)
//	TestParallelWithCachingSameRows: parallel × caching keeps the rows
//	  ........................................... Parallelism at Caching=1
//	TestProfileMatrixInvariance, ppbench -profile: P × width × profile —
//	  rows, charged, invocations as unprofiled; Profile on ⇔ Result.Profile
//	  != nil .................................... Profile; runAt (every run)
//	TestRandomizedCachingNeverIncreasesInvocations: caching never raises a
//	  function's invocations, same row count .... Caching
//	TestRandomizedTransferAgreement, ppbench -transfer: same multiset,
//	  caching on and off, serial and parallel; net of prepass + probe
//	  charge never above transfer-off when the plan shape is equal
//	  ........................................... Transfer; charged table:
//	  harness TransferPlacement (`ppbench -exp transfer`)
//	ppbench -topk: the facade sort's rows in order, charged no higher
//	  ........................................... orderLimit; ≥ 2× flagship and
//	  k-sweep: harness TopKSweep (`ppbench -exp topk`)
//	TestRandomizedFeedbackAgreement: harvesting keeps the multiset, the
//	  rerun after harvest charges no more ....... Feedback; e-sweep and loop:
//	  harness EstimateError (`ppbench -exp esterror`),
//	  TestFeedbackLoopRepairsPlan
//	TestRandomizedAlgorithmAgreement: same multiset under every algorithm,
//	  Exhaustive's estimate ≤ every left-deep algorithm's, Migration's ≤
//	  PullRank's, PushDown's, PullUp's .......... Algorithm
//	ppbench -server: N sessions through Server.Query match serial rows and
//	  charged, plan cache hits > 0 .............. TestConcurrentSessionsMatchSerial;
//	  shed, quota: TestServerShedsWithoutQueue, TestServerTenantQuota
//	ppbench -faults ............................. TestFaultSweep (unchanged)
var knobRows = []knobRow{
	{knob: "BatchSize", base: 1, values: []int{2, 7, 64, 256, 257},
		ordered: true, charged: identical, inv: identical},
	{knob: "Parallelism", base: 1, values: []int{3},
		charged: identical, inv: identical},
	{knob: "Profile", values: []int{1},
		ordered: true, charged: identical, inv: identical},
	{knob: "Caching", values: []int{1},
		charged: atMostNetSameShape, inv: atMostSameShape},
	{knob: "Transfer", values: []int{1},
		charged: atMostNetSameShape, inv: atMostSameShape},
	// Feedback runs twice with harvesting on: the first run plans on the
	// declared statistics and harvests, the second plans on what it saw and
	// charges no more. Promotions stay in the catalog, hence pinned and
	// fresh. With Caching on the clause does not hold (9 of 152 points): the
	// harvest is per tuple, a cached predicate's cost per distinct value.
	{knob: "Feedback", values: []int{1, 1}, all: true, pinned: true, fresh: true,
		also: func(base point, _ *predplace.Result, got []*predplace.Result) []string {
			if c1, c2 := got[0].Stats.Charged(), got[1].Stats.Charged(); base["Caching"] == 0 && c2 > c1*1.0001+1e-6 {
				return []string{fmt.Sprintf("rerun after harvest charged more: %v -> %v", c1, c2)}
			}
			return nil
		}},
	{knob: "Algorithm", base: int(predplace.Exhaustive), values: otherAlgorithms(predplace.Exhaustive), all: true,
		also: oracleEstimates},
}

// notAxes are the per-statement Config fields that are not lattice axes,
// and why.
var notAxes = map[string]string{
	"Budget":           "aborts the run (DNF): TestBudgetDNF, harness Fig9Query5",
	"Timeout":          "aborts the run: TestQueryContextCancel, TestFaultSweep",
	"CacheMaxEntries":  "changes invocation counts by design: harness Ablations",
	"PerFunctionCache": "shares cache entries across predicates by design: TestPerFunctionCacheSharing",
	"RobustE":          "a parameter of the Robust algorithm: harness EstimateError, TestRobustExplainSummary",
}

// openTime are the Config fields only Open reads; SetOptions keeps them
// (TestSetOptions).
var openTime = []string{"Scale", "Tables", "PoolPages", "PlanCacheSize"}

func otherAlgorithms(base predplace.Algorithm) []int {
	var out []int
	for _, a := range predplace.Algorithms() {
		if a != base {
			out = append(out, int(a))
		}
	}
	return out
}

// oracleEstimates is the Algorithm row's clause on estimated cost: the
// exhaustive oracle (want) never estimates above a left-deep algorithm, and
// Migration never above the heuristics it post-processes. It is a claim
// about the paper's cost model, Caching off: under the value-based model
// Migration's estimate exceeds PushDown's on half the corpus, and no
// enumerator prices top-k's index-order plan.
func oracleEstimates(base point, want *predplace.Result, got []*predplace.Result) []string {
	if base["Caching"] == 1 {
		return nil
	}
	var out []string
	est := map[predplace.Algorithm]float64{}
	for i, v := range otherAlgorithms(predplace.Exhaustive) {
		a := predplace.Algorithm(v)
		est[a] = got[i].EstCost
		if a != predplace.ExhaustiveBushy && want.EstCost > got[i].EstCost*1.0001 {
			out = append(out, fmt.Sprintf("Exhaustive estimate %v lost to %v's %v", want.EstCost, a, got[i].EstCost))
		}
	}
	for _, a := range []predplace.Algorithm{predplace.PullRank, predplace.PushDown, predplace.PullUp} {
		if est[predplace.Migration] > est[a]*1.0001 {
			out = append(out, fmt.Sprintf("Migration estimate %v lost to %v's %v", est[predplace.Migration], a, est[a]))
		}
	}
	return out
}

func knob(name string) knobRow {
	for _, k := range knobRows {
		if k.knob == name {
			return k
		}
	}
	panic("no knob row " + name)
}

// basePoint has every knob at its baseline.
func basePoint() point {
	p := point{}
	for _, k := range knobRows {
		p[k.knob] = k.base
	}
	return p
}

func (p point) with(knob string, v int) point {
	q := point{}
	for k, x := range p {
		q[k] = x
	}
	q[knob] = v
	return q
}

// applyTo sets every knob of db that is a Config field; a boolean field is
// on at 1.
func (p point) applyTo(db *predplace.DB) {
	db.SetOptions(func(c *predplace.Config) {
		for _, k := range knobRows {
			switch f := reflect.ValueOf(c).Elem().FieldByName(k.knob); f.Kind() {
			case reflect.Bool:
				f.SetBool(p[k.knob] == 1)
			case reflect.Int:
				f.SetInt(int64(p[k.knob]))
			}
		}
	})
}

func (p point) algo() predplace.Algorithm { return predplace.Algorithm(p["Algorithm"]) }

// racy points hold rows only (see knobRow.charged).
func (p point) racy() bool { return p["Parallelism"] > 1 && p["Caching"] == 1 }

// prepassInvokes: the transfer prepass evaluates cacheable predicates
// itself (see holds).
func (p point) prepassInvokes() bool { return p["Transfer"] == 1 && p["Caching"] == 1 }

func (p point) String() string {
	var b strings.Builder
	for _, k := range knobRows {
		if k.knob == "Algorithm" {
			fmt.Fprintf(&b, "Algorithm=%v", p.algo())
		} else {
			fmt.Fprintf(&b, "%s=%d ", k.knob, p[k.knob])
		}
	}
	return b.String()
}

// latticeCorpus is the one statement corpus: the golden statements, the
// seeded genQuery chains the pre-lattice tests drew, and the shapes those
// tests named that the golden file lacks.
func latticeCorpus() []goldenStmt {
	return append(append(goldenStmts(), seedStmts()...),
		goldenStmt{name: "topk-heap", sql: "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.ua1 LIMIT 7"},
		goldenStmt{name: "topk-desc", sql: "SELECT t1.u10, t1.a1 FROM t1 WHERE t1.u10 < 5 ORDER BY t1.u10 DESC LIMIT 9"},
		goldenStmt{name: "empty-range-inl", sql: "SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10 AND t10.a100 > 50 AND costly100(t3.ua1)"},
		goldenStmt{name: "fig1", sql: harness.Fig1Query},
		goldenStmt{name: "count", sql: "SELECT COUNT(*) FROM t2 WHERE costly100(t2.u20)"},
		goldenStmt{name: "projection", sql: "SELECT t2.a1, t2.ua1 FROM t2 WHERE t2.u10 = 3"},
	)
}

// seedStmts are fifteen genQuery join chains.
func seedStmts() []goldenStmt {
	rng := rand.New(rand.NewSource(20260705))
	out := make([]goldenStmt, 15)
	for i := range out {
		out[i] = goldenStmt{name: fmt.Sprintf("q%02d", i), sql: genQuery(rng)}
	}
	return out
}

// genQuery builds a random conjunctive benchmark query: a join chain over
// ua1 (nested domains guarantee matches), optional extra a10 join predicate,
// and up to two expensive selections on random unindexed columns.
func genQuery(rng *rand.Rand) string {
	tables := []string{"t1", "t2", "t3"}
	rng.Shuffle(len(tables), func(i, j int) { tables[i], tables[j] = tables[j], tables[i] })
	n := 2 + rng.Intn(2) // 2 or 3 tables
	tables = tables[:n]

	var preds []string
	for i := 1; i < n; i++ {
		preds = append(preds, fmt.Sprintf("%s.ua1 = %s.ua1", tables[i-1], tables[i]))
	}
	if n == 3 && rng.Intn(3) == 0 {
		preds = append(preds, fmt.Sprintf("%s.a10 = %s.a10", tables[0], tables[2]))
	}
	costs := []string{"costly1", "costly10", "costly100"}
	cols := []string{"u10", "u20", "u100"}
	for k := rng.Intn(3); k > 0; k-- {
		preds = append(preds, fmt.Sprintf("%s(%s.%s)",
			costs[rng.Intn(len(costs))],
			tables[rng.Intn(n)],
			cols[rng.Intn(len(cols))]))
	}
	if rng.Intn(2) == 0 {
		preds = append(preds, fmt.Sprintf("%s.u10 < %d", tables[rng.Intn(n)], 1+rng.Intn(20)))
	}
	return fmt.Sprintf("SELECT * FROM %s WHERE %s",
		strings.Join(tables, ", "), strings.Join(preds, " AND "))
}

// planShape reduces a rendered plan to its structure: per-node estimates and
// transfer annotations are stripped, so two plans compare equal exactly when
// they run the same operators in the same tree.
func planShape(p string) string {
	lines := strings.Split(p, "\n")
	for i, ln := range lines {
		if k := strings.Index(ln, "  (card="); k >= 0 {
			ln = ln[:k]
		}
		if k := strings.Index(ln, " bloom("); k >= 0 {
			if end := strings.Index(ln[k:], ")"); end >= 0 {
				ln = ln[:k] + ln[k+end+1:]
			}
		}
		lines[i] = ln
	}
	return stableNames(strings.Join(lines, "\n"))
}

// samplePoint draws the point a row's knob is moved at. The home point is
// where testdata/executor.golden was recorded — width 1, serial, the
// statement's own transfer setting — under a drawn algorithm and caching
// bit; away from home every unpinned knob is drawn. Tight-pool statements
// stay serial (see goldenStmt).
func samplePoint(rng *rand.Rand, moved knobRow, s goldenStmt, home bool) point {
	p := basePoint()
	for _, k := range knobRows {
		if k.knob == "Algorithm" && !home {
			rng.Intn(2) // the TopK knob's bit, drawn still: every row's points (and Feedback's promotions along them) stay put
		}
		switch {
		case k.knob == moved.knob || k.pinned:
		case k.knob == "Parallelism" && s.tight:
		case home && k.knob == "Transfer":
			p[k.knob] = btoi(s.transfer)
		case home && k.knob != "Caching" && k.knob != "Algorithm":
		default:
			p[k.knob] = append([]int{k.base}, k.values...)[rng.Intn(1+len(k.values))]
		}
	}
	return p
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// latticeSeed is the reproducer's seed: a failure names the knob, the
// statement and this number, and the (knob, statement) pair replays alone.
func latticeSeed(knob, stmt string) int64 {
	h := fnv.New32a()
	h.Write([]byte(knob + "/" + stmt))
	return 20261002 + int64(h.Sum32())
}

// runAt executes s at p and checks what holds of every run: profiling on ⇔
// a profile is returned, Stats.Rows counts the rows delivered, and a run at
// a point the golden file speaks for — serial, the statement's own transfer
// setting; any width, profiled or not — gives the recorded answer.
func (k knobRow) runAt(t *testing.T, db *predplace.DB, golden map[string]string, s goldenStmt, p point) *predplace.Result {
	t.Helper()
	p.applyTo(db)
	res, err := db.Query(s.sql, p.algo())
	if err != nil {
		t.Fatalf("%v\n%s", err, k.where(s, p))
	}
	if (res.Profile != nil) != (p["Profile"] == 1) {
		t.Errorf("Profile=%d but Result.Profile set is %v\n%s", p["Profile"], res.Profile != nil, k.where(s, p))
	}
	if res.Stats.Rows != len(res.Rows) {
		t.Errorf("Stats.Rows = %d, %d rows delivered\n%s", res.Stats.Rows, len(res.Rows), k.where(s, p))
	}
	want, ok := golden[fmt.Sprintf("%s/%v/caching=%v", s.name, p.algo(), p["Caching"] == 1)]
	if ok && p["Parallelism"] == 1 && p["Transfer"] == btoi(s.transfer) {
		if got := answerOf(res); got != want {
			t.Errorf("answer differs from %s:\n got %s\nwant %s\n%s", executorGolden, got, want, k.where(s, p))
		}
	}
	return res
}

// where is the one-line reproducer: the database, every knob value, the
// statement, and the subtest (whose draws latticeSeed fixes) to rerun.
func (k knobRow) where(s goldenStmt, p point) string {
	pool := ""
	if s.tight {
		pool = " PoolPages=6"
	}
	return fmt.Sprintf("  repro: Scale=0.01%s %s sql=%q seed=%d (go test -run 'TestKnobLattice/%s/%s$' .)",
		pool, p, strings.Join(strings.Fields(s.sql), " "), latticeSeed(k.knob, s.name), k.knob, s.name)
}

// holds checks k's contract for one variant run against its baseline run.
func (k knobRow) holds(t *testing.T, s goldenStmt, base, at point, want, got *predplace.Result) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s %d -> %d: %s\n%s", k.knob, base[k.knob], at[k.knob], fmt.Sprintf(format, args...), k.where(s, at))
	}
	serial := base["Parallelism"] == 1 && at["Parallelism"] == 1
	ordered := k.ordered && (serial || strings.Contains(s.sql, "ORDER BY"))
	if w, g := harness.CanonRows(want, ordered), harness.CanonRows(got, ordered); !slices.Equal(w, g) {
		fail("rows differ (ordered=%v): %d rows, baseline %d", ordered, len(g), len(w))
	}
	if base.racy() || at.racy() {
		return
	}
	sameShape := planShape(want.Plan) == planShape(got.Plan)
	exceeds := func(c contract, w, g float64) bool {
		switch c {
		case identical:
			return math.Float64bits(w) != math.Float64bits(g)
		case atMostSameShape, atMostNetSameShape:
			return sameShape && g > w+1e-6
		}
		return false
	}
	wc, gc := want.Stats.Charged(), got.Stats.Charged()
	if k.charged == atMostNetSameShape {
		wc, gc = wc-transferOverhead(want), gc-transferOverhead(got)
	}
	if exceeds(k.charged, wc, gc) {
		fail("charged %v, baseline %v (net of %v and %v transfer overhead, same shape %v)",
			got.Stats.Charged(), want.Stats.Charged(), transferOverhead(got), transferOverhead(want), sameShape)
	}
	// With Transfer and Caching both on, the prepass evaluates cacheable
	// predicates over whole tables to sharpen its filters: that work is in
	// the overhead it reports, and the counts only hold to identical.
	if k.inv != identical && (base.prepassInvokes() || at.prepassInvokes()) {
		return
	}
	wi, gi := stableInvocations(want), stableInvocations(got)
	for _, inv := range []map[string]int64{wi, gi} {
		for fn := range inv {
			if w, g := wi[fn], gi[fn]; exceeds(k.inv, float64(w), float64(g)) {
				fail("%s invoked %d times, baseline %d (same shape %v)", fn, g, w, sameShape)
			}
		}
	}
}

// stableInvocations is res's invocation counts by stableNames.
func stableInvocations(res *predplace.Result) map[string]int64 {
	out := make(map[string]int64, len(res.Stats.Invocations))
	for fn, n := range res.Stats.Invocations {
		out[stableNames(fn)] += n
	}
	return out
}

// transferOverhead is what a transfer-on run reports having charged for its
// prepass and probes (0 with transfer off).
func transferOverhead(res *predplace.Result) float64 {
	if ts := res.Stats.Transfer; ts != nil {
		return ts.PrepassCharged + ts.ProbeCharge
	}
	return 0
}

// run moves k over stmts: per statement, at the home point and at one drawn
// point, the baseline run and then each variant run held to k's contract.
func (k knobRow) run(t *testing.T, stmts []goldenStmt) {
	roomy, tight := goldenDBs(t, k.fresh)
	golden := map[string]string{}
	if !k.fresh { // a catalog holding promotions no longer plans as recorded
		golden = readGolden(t)
	}
	for _, s := range stmts {
		// Which rows a LIMIT without ORDER BY keeps is decided by the plan
		// under the Limit root: rows whose knob may change that plan (Caching,
		// Transfer, Algorithm, Feedback) do not apply. It is built serial.
		if s.anyRows && !k.ordered && k.knob != "Parallelism" || s.tight && k.knob == "Parallelism" {
			continue
		}
		db := roomy
		if s.tight {
			db = tight
		}
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(latticeSeed(k.knob, s.name)))
			for _, home := range []bool{true, false} {
				base := samplePoint(rng, k, s, home)
				want := k.runAt(t, db, golden, s, base)
				values := k.values
				if !k.all {
					values = []int{k.values[rng.Intn(len(k.values))]}
				}
				var got []*predplace.Result
				for _, v := range values {
					at := base.with(k.knob, v)
					res := k.runAt(t, db, golden, s, at)
					k.holds(t, s, base, at, want, res)
					got = append(got, res)
				}
				if k.also != nil {
					for _, complaint := range k.also(base, want, got) {
						t.Errorf("%s\n%s", complaint, k.where(s, base))
					}
				}
			}
		})
	}
	basePoint().applyTo(roomy)
	basePoint().applyTo(tight)
}

func TestKnobLattice(t *testing.T) {
	corpus := latticeCorpus()
	for _, k := range knobRows {
		t.Run(k.knob, func(t *testing.T) { k.run(t, corpus) })
	}
	t.Run("TopK", func(t *testing.T) { orderLimit(t, corpus) })
}

// clauseRE splits a whitespace-normalized statement into its text without
// ORDER BY/LIMIT [1], the two clauses [2] [5], the key [3], DESC [4], bound [6].
var clauseRE = regexp.MustCompile(`^(.*?)( ORDER BY (\S+)( DESC)?)?( LIMIT (\d+))?$`)

// drawnClauses: a statement without ORDER BY or LIMIT is checked under each, KEY drawn from its output.
var drawnClauses = []string{" ORDER BY KEY LIMIT 7", " ORDER BY KEY DESC LIMIT 9", " ORDER BY KEY LIMIT 1000",
	" ORDER BY KEY LIMIT 0", " ORDER BY KEY", " ORDER BY KEY DESC", " LIMIT 5", " LIMIT 0"}

// orderLimit holds ORDER BY and LIMIT to their reference, the facade sort the
// plan root replaced. Per statement, at two drawn points: the statement
// without the clauses runs serially, the test sorts its rows by (key, full
// projected row ascending) and truncates them — with no ORDER BY the serial
// prefix is the reference — and the statement with its clauses (having none,
// with each of drawnClauses) must deliver exactly those rows and charge no
// more. No knob moves; the test floor pins the subtests as TopK/<stmt>.
func orderLimit(t *testing.T, stmts []goldenStmt) {
	k := knobRow{knob: "TopK"}
	roomy, tight := goldenDBs(t, false)
	for _, s := range stmts {
		db := roomy
		if s.tight {
			db = tight
		}
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(latticeSeed(k.knob, s.name)))
			written := clauseRE.FindStringSubmatch(strings.Join(strings.Fields(s.sql), " "))
			bare, clauses := s, []string{written[2] + written[5]}
			bare.sql = written[1]
			if clauses[0] == "" && !strings.Contains(s.sql, "COUNT(*)") { // the aggregate ignores both clauses
				clauses = drawnClauses
			}
			for range 2 {
				p := samplePoint(rng, k, s, false)
				want := k.runAt(t, db, nil, bare, p.with("Parallelism", 1))
				for _, clause := range clauses {
					full := bare
					full.sql += strings.ReplaceAll(clause, "KEY", want.Cols[rng.Intn(len(want.Cols))])
					got := k.runAt(t, db, nil, full, p)
					m := clauseRE.FindStringSubmatch(full.sql)
					ref := slices.Clone(want.Rows)
					if key, dir := slices.Index(want.Cols, m[3]), map[string]int{"": 1, " DESC": -1}[m[4]]; key >= 0 {
						slices.SortFunc(ref, func(a, b []predplace.Value) int {
							return cmp.Or(dir*a[key].Compare(b[key]), slices.CompareFunc(a, b, predplace.Value.Compare))
						})
					}
					if n, err := strconv.Atoi(m[6]); err == nil && n < len(ref) {
						ref = ref[:n]
					}
					if !slices.Equal(encodedRows(got), encodedRows(&predplace.Result{Rows: ref})) {
						t.Errorf("rows differ from the reference sort: %d rows, reference %d\n%s", len(got.Rows), len(ref), k.where(full, p))
					}
					// ORDER BY alone shows its sort; LIMIT alone sits on the bare statement's plan.
					head, beneath, _ := strings.Cut(got.Plan, "\n")
					if m[2] != "" && m[5] == "" && !strings.HasPrefix(head, "Sort by "+m[3]) || m[2] == "" && m[5] != "" &&
						(!strings.HasPrefix(head, "Limit "+m[6]+" ") || stableNames(strings.ReplaceAll("\n"+beneath, "\n  ", "\n")) != stableNames("\n"+want.Plan)) {
						t.Errorf("plan root:\n%swithout the clauses:\n%s%s", got.Plan, want.Plan, k.where(full, p))
					}
					if gc, wc := got.Stats.Charged(), want.Stats.Charged(); !p.racy() && gc > wc+1e-6 {
						t.Errorf("charged %v, %v without the clauses\n%s", gc, wc, k.where(full, p))
					}
				}
			}
		})
	}
	basePoint().applyTo(roomy)
	basePoint().applyTo(tight)
}

// TestKnobCoverage: every per-statement field of predplace.Config is a
// lattice row or a reasoned exclusion, and every row but Algorithm is such a
// field.
func TestKnobCoverage(t *testing.T) {
	typ := reflect.TypeOf(predplace.Config{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if slices.Contains(openTime, name) {
			continue
		}
		fields[name] = true
		isRow := slices.ContainsFunc(knobRows, func(k knobRow) bool { return k.knob == name })
		if _, excluded := notAxes[name]; isRow == excluded {
			t.Errorf("Config.%s: want exactly one of a knobRows row and a notAxes reason (row=%v, excluded=%v)", name, isRow, excluded)
		}
	}
	for _, k := range knobRows {
		if !fields[k.knob] && k.knob != "Algorithm" {
			t.Errorf("knob row %s names no per-statement Config field", k.knob)
		}
	}
	for name := range notAxes {
		if !fields[name] {
			t.Errorf("notAxes lists %s, but there is no per-statement Config.%s", name, name)
		}
	}
}

// The eight test names the lattice replaced stay as entry points, because the
// repository's test floor pins them and their qNN subtests by name: each
// runs its row (orderLimit, for TopK) over the seeded chains. TestKnobLattice runs every row
// over the whole corpus and is the gate.
func TestRandomizedBatchAgreement(t *testing.T)        { knob("BatchSize").run(t, seedStmts()) }
func TestParallelMatchesSerialRandomized(t *testing.T) { knob("Parallelism").run(t, seedStmts()) }
func TestProfileMatrixInvariance(t *testing.T)         { knob("Profile").run(t, seedStmts()) }
func TestRandomizedTransferAgreement(t *testing.T)     { knob("Transfer").run(t, seedStmts()) }
func TestRandomizedFeedbackAgreement(t *testing.T)     { knob("Feedback").run(t, seedStmts()) }
func TestRandomizedAlgorithmAgreement(t *testing.T)    { knob("Algorithm").run(t, seedStmts()) }
func TestRandomizedCachingNeverIncreasesInvocations(t *testing.T) {
	knob("Caching").run(t, seedStmts())
}

// TestRandomizedTopKAgreement adds the corpus statements written with a LIMIT
// (index order, projected tie columns, LIMIT without ORDER BY).
func TestRandomizedTopKAgreement(t *testing.T) {
	written := slices.DeleteFunc(latticeCorpus(), func(s goldenStmt) bool { return !strings.Contains(s.sql, " LIMIT ") })
	orderLimit(t, append(seedStmts(), written...))
}
