package predplace_test

// The executor's answers as data. testdata/executor.golden holds, for a fixed
// set of statement × algorithm × knob legs, what the engine returned at
// BatchSize 1, Parallelism 1, scale 0.01: the ordered-row digest, the exact
// bits of Stats.Charged(), the per-function invocation counts and DNF. It
// was recorded from the tuple-at-a-time executor before that executor was
// deleted (CHANGES.md names the commit), so it is the reference the batch
// width is checked against: TestExecutorGolden replays every leg at each
// width and requires all four fields unchanged — width is not a mode — and
// in parallel holds them to the Parallelism row of the knob lattice
// (lattice_test.go), whose other rows anchor on the same file. An executor
// change that is meant to alter an answer regenerates the file with
//
//	go test -run TestExecutorGolden -update .
//
// and the diff is the review artefact.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"predplace"
	"predplace/internal/harness"
)

var updateExecutorGolden = flag.Bool("update", false, "rewrite testdata/executor.golden from the executor at BatchSize 1")

const executorGolden = "testdata/executor.golden"

type goldenStmt struct {
	name, sql string
	transfer  bool // run with predicate transfer on
	// anyRows marks a LIMIT without ORDER BY: which rows it keeps is decided
	// by the plan beneath the Limit root (built serial at any worker count).
	anyRows bool
	// tight runs the statement against a 6-page buffer pool, where the
	// order of page accesses — a nested loop's outer against its inner, an
	// index nested loop's outer against its probes — decides what is
	// evicted and so what is charged: a hash join that read its outer side
	// ahead under nl-join-outer's nested loop would be charged differently.
	// Serial only: workers' accesses interleave freely, and a sharded
	// 6-page pool runs out of frames.
	tight bool
	// merge marks a statement whose PushDown plan has a merge join, which
	// TestExecutorGolden checks: the tight merge legs hold the order a merge
	// join drains its sides in to the charges recorded before that order
	// could change.
	merge bool
}

// goldenStmts are 40 seeded genQuery statements, Queries 1–5, four ORDER
// BY / LIMIT shapes, Queries 3–5 under transfer, eight nested-loop and
// index-nested-loop shapes under a tight pool, and four merge-join shapes
// under it: Query 4; t10 ⋈ t1, whose inner is the smaller side; the same
// under transfer, whose prepass reads both tables first; and the same with
// an IN subquery that reads t1 again.
func goldenStmts() []goldenStmt {
	var out []goldenStmt
	rng := rand.New(rand.NewSource(20261002))
	for i := 0; i < 40; i++ {
		out = append(out, goldenStmt{name: fmt.Sprintf("gen%02d", i), sql: genQuery(rng)})
	}
	figures := []string{harness.Query1, harness.Query2, harness.Query3, harness.Query4, harness.Query5}
	for i, sql := range figures {
		out = append(out, goldenStmt{name: fmt.Sprintf("query%d", i+1), sql: sql})
	}
	out = append(out,
		goldenStmt{name: "limit-ordered-scan",
			sql: "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.a1 LIMIT 10"},
		goldenStmt{name: "topk-join",
			sql: "SELECT * FROM t1, t3 WHERE t1.ua1 = t3.ua1 AND costly100(t3.u20) ORDER BY t1.ua1 LIMIT 5"},
		goldenStmt{name: "limit-join", anyRows: true,
			sql: "SELECT * FROM t1, t3 WHERE t1.ua1 = t3.ua1 AND costly100(t3.u20) LIMIT 5"},
		goldenStmt{name: "limit-scan", anyRows: true,
			sql: "SELECT * FROM t1 WHERE t1.u10 < 5 LIMIT 9"},
	)
	for i, sql := range figures[2:] {
		out = append(out, goldenStmt{name: fmt.Sprintf("query%d-transfer", i+3), sql: sql, transfer: true})
	}
	for _, s := range []goldenStmt{
		{name: "inl", sql: "SELECT * FROM t5, t10 WHERE t5.a1 = t10.a1 AND t5.ua1 < 4"},
		{name: "inl-residual", sql: "SELECT * FROM t5, t10 WHERE t5.a1 = t10.a1 AND t5.ua1 < 12 AND costly10(t10.u20) AND t10.u10 < 8"},
		{name: "inl-many", sql: "SELECT * FROM t5, t10 WHERE t5.a10 = t10.a10 AND t5.ua1 < 3 AND costly1(t10.u100)"},
		{name: "inl-inl", sql: "SELECT * FROM t2, t5, t10 WHERE t2.ua1 < 5 AND t2.a1 = t5.a1 AND t5.a10 = t10.a10 AND costly10(t10.u20)"},
		{name: "inl-over-nl", sql: "SELECT * FROM t3, t7, t10 WHERE costly10join(t3.u20, t7.u20) AND t3.ua1 < 3 AND t7.a1 = t10.a1 AND t7.u10 < 3"},
		{name: "nl-filter-outer", sql: "SELECT * FROM t3, t7 WHERE costly10join(t3.u20, t7.u20) AND t3.u10 < 2"},
		{name: "nl-join-outer", sql: "SELECT * FROM t2, t3, t4 WHERE t2.a1 = t3.a1 AND t2.ua1 < 20 AND costly10join(t3.u20, t4.u20)"},
		{name: "nl-join-outer-wide", sql: "SELECT * FROM t4, t6, t3 WHERE t4.a1 = t6.a1 AND t4.ua1 < 30 AND costly10join(t6.u20, t3.u20)"},
		{name: "merge-query4", sql: harness.Query4, merge: true},
		{name: "merge-small-inner", sql: "SELECT * FROM t3, t10, t1 WHERE t3.ua1 = t10.ua1 AND t10.ua1 = t1.ua1", merge: true},
		{name: "merge-small-inner-transfer", sql: "SELECT * FROM t3, t10, t1 WHERE t3.ua1 = t10.ua1 AND t10.ua1 = t1.ua1", transfer: true, merge: true},
		{name: "merge-small-inner-in", sql: "SELECT * FROM t3, t10, t1 WHERE t3.ua1 = t10.ua1 AND t10.ua1 = t1.ua1 AND t3.u10 IN (SELECT t1.u10 FROM t1 WHERE t1.ua1 < 50)", merge: true},
	} {
		s.tight = true
		out = append(out, s)
	}
	return out
}

// encodedRows renders each row of a result as its values' self-delimiting
// key encoding (expr.Value.AppendKey), in delivered order.
func encodedRows(res *predplace.Result) []string {
	out := make([]string, len(res.Rows))
	var buf []byte
	for i, row := range res.Rows {
		buf = buf[:0]
		for _, v := range row {
			buf = v.AppendKey(buf)
		}
		out[i] = string(buf)
	}
	return out
}

func digestRows(rows []string) string {
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// chargedBits renders Stats.Charged() exactly.
func chargedBits(res *predplace.Result) string {
	return fmt.Sprintf("charged=%016x", math.Float64bits(res.Stats.Charged()))
}

// subqueryFunc matches the name an IN subquery's predicate function gets: its
// table and a sequence number the database counts up per compiled subquery.
var subqueryFunc = regexp.MustCompile(`\bin_(\w+?)_[0-9]+\b`)

// stableNames drops the sequence numbers from the subquery functions named
// in s, which differ between two runs of one statement.
func stableNames(s string) string { return subqueryFunc.ReplaceAllString(s, "in_$1") }

// answerOf renders one leg's outcome as the golden file records it.
func answerOf(res *predplace.Result) string {
	var inv []string
	for fn, n := range res.Stats.Invocations {
		inv = append(inv, fmt.Sprintf("%s=%d", stableNames(fn), n))
	}
	sort.Strings(inv)
	return fmt.Sprintf("rows=%d sha256=%s %s inv=%s dnf=%v", len(res.Rows),
		digestRows(encodedRows(res)), chargedBits(res), strings.Join(inv, ","), res.DNF)
}

// goldenDBs opens the two scale-0.01 databases the golden legs and the knob
// lattice run on: a roomy pool sharded for three workers, and the 6-page
// pool of the tight statements. Every planned tree is held to plan.Validate
// (PPLINT_VALIDATE is read at Open). The pair is shared by the package's
// tests unless fresh is set; each sets every knob it depends on.
func goldenDBs(t *testing.T, fresh bool) (roomy, tight *predplace.DB) {
	t.Helper()
	open := func(poolPages, parallelism int) *predplace.DB {
		db, err := predplace.Open(predplace.Config{Scale: 0.01, Parallelism: parallelism, PoolPages: poolPages})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	t.Setenv("PPLINT_VALIDATE", "1")
	if fresh {
		return open(0, 3), open(6, 1)
	}
	sharedGoldenDBs.once.Do(func() { sharedGoldenDBs.roomy, sharedGoldenDBs.tight = open(0, 3), open(6, 1) })
	return sharedGoldenDBs.roomy, sharedGoldenDBs.tight
}

var sharedGoldenDBs struct {
	once         sync.Once
	roomy, tight *predplace.DB
}

// readGolden parses testdata/executor.golden into leg → answer.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(executorGolden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := map[string]string{}
	for _, ln := range strings.Split(string(data), "\n") {
		if key, answer, ok := strings.Cut(ln, "\t"); ok && !strings.HasPrefix(ln, "#") {
			want[key] = answer
		}
	}
	return want
}

func TestExecutorGolden(t *testing.T) {
	roomy, tight := goldenDBs(t, false)
	basePoint().applyTo(roomy)
	basePoint().applyTo(tight)
	stmts := goldenStmts()
	widths, parallel := knob("BatchSize"), knob("Parallelism")

	want := map[string]string{}
	if !*updateExecutorGolden {
		want = readGolden(t)
	}

	var out strings.Builder
	out.WriteString("# leg\tanswer at BatchSize 1, Parallelism 1, scale 0.01 (see executor_golden_test.go)\n")
	legs := 0
	for _, s := range stmts {
		fmt.Fprintf(&out, "# %s: %s\n", s.name, strings.Join(strings.Fields(s.sql), " "))
		db := roomy
		if s.tight {
			db = tight
		}
		db.SetOptions(func(c *predplace.Config) { c.Transfer = s.transfer })
		for _, algo := range predplace.Algorithms() {
			for _, caching := range []bool{false, true} {
				key := fmt.Sprintf("%s/%v/caching=%v", s.name, algo, caching)
				legs++
				db.SetOptions(func(c *predplace.Config) { c.Caching, c.Parallelism = caching, 1 })
				if *updateExecutorGolden {
					db.SetOptions(func(c *predplace.Config) { c.BatchSize = 1 })
					res, err := db.Query(s.sql, algo)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					fmt.Fprintf(&out, "%s\t%s\n", key, answerOf(res))
					continue
				}
				var serial *predplace.Result
				for _, w := range append([]int{widths.base}, widths.values...) {
					db.SetOptions(func(c *predplace.Config) { c.BatchSize = w })
					res, err := db.Query(s.sql, algo)
					if err != nil {
						t.Fatalf("%s width %d: %v", key, w, err)
					}
					if got := answerOf(res); got != want[key] {
						t.Errorf("%s width %d:\n got %s\nwant %s\nquery: %s", key, w, got, want[key], s.sql)
					}
					serial = res
				}
				if s.merge && algo == predplace.PushDown && !strings.Contains(serial.Plan, "MergeJoin") {
					t.Errorf("%s plans no merge join:\n%s", key, serial.Plan)
				}
				if caching || s.tight {
					continue
				}
				// Parallel runs keep what the Parallelism row says they keep of
				// the serial run just checked against the file.
				base := basePoint().with("Algorithm", int(algo)).with("Transfer", btoi(s.transfer))
				for _, p := range parallel.values {
					db.SetOptions(func(c *predplace.Config) { c.Parallelism = p })
					for _, w := range []int{1, 256} {
						db.SetOptions(func(c *predplace.Config) { c.BatchSize = w })
						res, err := db.Query(s.sql, algo)
						if err != nil {
							t.Fatalf("%s width %d parallel: %v", key, w, err)
						}
						parallel.holds(t, s, base, base.with("Parallelism", p).with("BatchSize", w), serial, res)
					}
				}
			}
		}
	}
	if *updateExecutorGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(executorGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != legs {
		t.Errorf("%s holds %d legs, the test replays %d", executorGolden, len(want), legs)
	}
}
