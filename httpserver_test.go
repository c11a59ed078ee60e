package predplace

// The request path's gates: the POST /query success body byte for byte, the
// bound on the request body, and what a warm point lookup may allocate.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"predplace/internal/exec"
	"predplace/internal/expr"
)

// jsonRows converts result values to JSON natural types: how the handler
// built QueryResponse.Rows before it encoded rows itself, kept as the oracle.
func jsonRows(rows [][]Value) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		jr := make([]any, len(r))
		for j, v := range r {
			switch {
			case v.IsNull():
				jr[j] = nil
			case v.Kind == expr.TString:
				jr[j] = v.S
			default:
				jr[j] = v.I
			}
		}
		out[i] = jr
	}
	return out
}

// referenceBody is the documented wire format: json.Encoder, two-space
// indent, over the QueryResponse for res.
func referenceBody(t *testing.T, res *Result, elapsed string) []byte {
	t.Helper()
	resp := &QueryResponse{Cols: res.Cols, Rows: jsonRows(res.Rows), RowN: len(res.Rows),
		Charged: res.Stats.Charged(), DNF: res.DNF, Elapsed: elapsed}
	if res.Explained {
		resp.Plan = res.Plan
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryResponseBytes holds appendQueryResponse to the bytes json.Encoder
// writes for QueryResponse — what every client, bench/'s tailField and
// `"dnf": true` probe among them, has been parsing — over a fixed corpus of
// the awkward cases, real results, and seeded random ones.
func TestQueryResponseBytes(t *testing.T) {
	charged := func(c float64) Stats { return Stats{SyntheticIO: c} }
	awkward := []string{"", "plain", `quo"te`, `back\slash`, "<tag>", "a&b", "tab\there", "nl\nnl", "\x00\x1f\x7f",
		"naïve µs 日本", "bad\xff\xfeutf8", "line\u2028sep\u2029", "trailing ", "{}[],:"}
	var awkRow []Value
	for _, s := range awkward {
		awkRow = append(awkRow, Str(s))
	}
	corpus := map[string]*Result{
		"empty":      {Cols: []string{"t1.a1"}},
		"no-cols":    {},
		"zero-width": {Rows: [][]Value{{}, nil, {}}},
		"ints": {Cols: []string{"a", "b"}, Stats: charged(12.5), Rows: [][]Value{
			{Int(0), Int(-1)}, {Int(math.MaxInt64), Int(math.MinInt64)}, {Int(1234567890123456789), expr.Null}, {Bool(true), Bool(false)}}},
		"strings": {Cols: awkward, Rows: [][]Value{awkRow, awkRow}, Stats: charged(1)},
		"count":   {Cols: []string{"count"}, Rows: [][]Value{{Int(42)}}, Stats: charged(4806287.554)},
		"explain": {Explained: true, Plan: "Filter costly100(t10.u20)  rows=3 cost=12\n  SeqScan t10 <&>\n", Stats: charged(0)},
		"dnf":     {Cols: []string{"x"}, DNF: true, Stats: charged(3000.25)},
		// Plan is set on every executed Result and must not be sent.
		"executed": {Cols: []string{"x"}, Rows: [][]Value{{Int(1)}}, Plan: "SeqScan t1\n", Stats: charged(7)},
	}
	for exp := -9; exp <= 22; exp++ {
		for _, m := range []float64{1, 1.2345678901234567, 9.999999999999999} {
			c := m * math.Pow(10, float64(exp))
			corpus[fmt.Sprint("charged=", c)] = &Result{Cols: []string{"x"}, Stats: charged(c)}
		}
	}

	db := openBench(t, 1)
	for _, sql := range []string{
		"SELECT * FROM t1 WHERE t1.ua1 < 10",
		"SELECT t1.a1, t1.u10 FROM t1 WHERE t1.ua1 < 3",
		"SELECT * FROM t1 WHERE t1.ua1 < 0",
		"SELECT COUNT(*) FROM t1 WHERE t1.u10 < 5",
		"EXPLAIN SELECT * FROM t1 WHERE costly100(t1.u10)",
		"EXPLAIN ANALYZE SELECT * FROM t1 WHERE t1.ua1 < 10",
	} {
		res, err := db.Query(sql, Migration)
		if err != nil {
			t.Fatal(err)
		}
		corpus[sql] = res
	}

	rng := rand.New(rand.NewSource(23))
	alphabet := []rune("ab \"\\<>&\n\t\x01é日\u2028\uFFFD")
	randString := func() string {
		if rng.Intn(4) == 0 { // raw bytes, invalid UTF-8 likely
			b := make([]byte, rng.Intn(6))
			rng.Read(b)
			return string(b)
		}
		r := make([]rune, rng.Intn(8))
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	for i := 0; i < 200; i++ {
		res := &Result{DNF: rng.Intn(8) == 0, Explained: rng.Intn(8) == 0, Plan: randString(),
			Stats: charged(math.Ldexp(rng.Float64(), rng.Intn(90)-30))}
		width := rng.Intn(5)
		for c := 0; c < width; c++ {
			res.Cols = append(res.Cols, randString())
		}
		for r := rng.Intn(6); r > 0; r-- {
			row := make([]Value, width)
			for c := range row {
				switch rng.Intn(4) {
				case 0:
					row[c] = expr.Null
				case 1:
					row[c] = Str(randString())
				case 2:
					row[c] = Int(rng.Int63() - rng.Int63())
				default:
					row[c] = Int(int64(rng.Intn(100)))
				}
			}
			res.Rows = append(res.Rows, row)
		}
		corpus[fmt.Sprint("random", i)] = res
	}

	for name, res := range corpus {
		for _, elapsed := range []string{"44.3µs", "1.5s"} {
			got, err := appendQueryResponse([]byte("stale")[:0], res, elapsed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := referenceBody(t, res, elapsed); !bytes.Equal(got, want) {
				t.Fatalf("%s: the encoder wrote\n%s\njson.Encoder writes\n%s", name, got, want)
			}
		}
	}

	// A charged cost JSON cannot carry is an error, not a truncated body.
	if _, err := appendQueryResponse(nil, &Result{Stats: charged(math.NaN())}, ""); err == nil {
		t.Fatal("NaN charged cost encoded without an error")
	}

	// End to end: the same bytes arrive, announced by Content-Length.
	ts := httptest.NewServer(NewServer(db, ServerConfig{}).Handler())
	defer ts.Close()
	for _, sql := range []string{"SELECT * FROM t1 WHERE t1.ua1 < 400", "EXPLAIN SELECT * FROM t1 WHERE costly100(t1.u10)"} {
		reqBody, _ := json.Marshal(QueryRequest{SQL: sql})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", sql, resp.StatusCode, err)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("%s: Content-Length %q for a body of %d bytes", sql, cl, len(body))
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		res, err := db.Query(sql, Migration)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceBody(t, res, qr.Elapsed); !bytes.Equal(body, want) {
			t.Fatalf("%s: served\n%.400s\nwant\n%.400s", sql, body, want)
		}
	}
}

// TestServerBodyLimit: a request body past maxRequestBytes is refused with
// 413 before any query is admitted; one byte under the bound still runs.
func TestServerBodyLimit(t *testing.T) {
	db := openBench(t, 1)
	srv := NewServer(db, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(size int) (int, string) {
		t.Helper()
		head, tail := `{"sql":"SELECT COUNT(*) FROM t1 WHERE t1.u10 < 5`, `"}`
		body := head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	before := srv.Stats()
	code, body := post(maxRequestBytes + 1)
	var e errorResponse
	if err := json.Unmarshal([]byte(body), &e); code != http.StatusRequestEntityTooLarge || err != nil || e.Error == "" {
		t.Fatalf("oversized body: status %d body %q (%v)", code, body, err)
	}
	if after := srv.Stats(); after.Served != before.Served || after.Shed != before.Shed {
		t.Fatalf("oversized body reached admission: %+v -> %+v", before, after)
	}
	code, body = post(maxRequestBytes - 1)
	var qr QueryResponse
	if err := json.Unmarshal([]byte(body), &qr); code != http.StatusOK || err != nil || qr.RowN != 1 {
		t.Fatalf("body one byte under the bound: status %d body %q (%v)", code, body, err)
	}
	if after := srv.Stats(); after.Served != before.Served+1 {
		t.Fatalf("served %d -> %d, want one more", before.Served, after.Served)
	}
}

// TestProjectAllocatesOnce: a SELECT list costs the projection its fixed
// slices — row headers, one backing array for every projected value, the
// index and name lists and one name per column — however many rows there are.
func TestProjectAllocatesOnce(t *testing.T) {
	db, err := Open(Config{Scale: 0.1, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare("SELECT t1.a1, t1.u10 FROM t1", Migration)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Run(db.newEnv(context.Background(), db.Options()), p.plan.root)
	if err != nil || len(out.Rows) != 1000 {
		t.Fatalf("want 1000 rows, got %d (%v)", len(out.Rows), err)
	}
	res := &Result{}
	allocs := testing.AllocsPerRun(20, func() { project(p.plan.root, p.plan.bound, out, res) })
	if cols := len(p.plan.bound.Projection); allocs > float64(4+cols) {
		t.Fatalf("project of 1000 rows × %d columns: %.0f allocations, want at most 4 and a name per column", cols, allocs)
	}
	i1, i2 := -1, -1
	for i, c := range out.Cols {
		switch c {
		case "t1.a1":
			i1 = i
		case "t1.u10":
			i2 = i
		}
	}
	for i, r := range res.Rows {
		if len(r) != 2 || cap(r) != 2 || r[0] != out.Rows[i][i1] || r[1] != out.Rows[i][i2] {
			t.Fatalf("row %d projected to %v from %v", i, r, out.Rows[i])
		}
	}
}

// pointLookupParent and rangeUDFParent are what one call allocated at the
// parent commit, measured with this test's loop: a 128 KiB zeroed slab for
// the one result row, and result memory for every row the scan read.
const (
	pointLookupParent = 136696  // bytes
	rangeUDFParent    = 2709408 // bytes
)

// TestPointLookupAllocBudget is the deterministic form of server_mix's
// alloc_mb_per_op for its two single-table classes, through DB.Query on a
// warm plan cache with the collector off: a point lookup allocates a few
// rows' worth, and a filter over a scan allocates for the rows it keeps.
func TestPointLookupAllocBudget(t *testing.T) {
	if exec.SlabPoison {
		t.Skip("under the race detector sync.Pool drops a quarter of its puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	db, err := Open(Config{Scale: 0.1, Tables: []int{10}})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(sql string) (bytes, allocs uint64) {
		const runs = 20
		run := func() {
			if _, err := db.Query(sql, Migration); err != nil {
				t.Fatal(err)
			}
		}
		run() // plan cached, slabs on the free list
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
	}
	bytes, allocs := measure("SELECT * FROM t10 WHERE t10.a1 = 4711")
	t.Logf("point lookup: %d B, %d allocs per call (parent: %d B)", bytes, allocs, pointLookupParent)
	if bytes > 8<<10 || allocs > 64 {
		t.Fatalf("a warm point lookup allocates %d B in %d allocations, want at most 8 KiB in 64", bytes, allocs)
	}
	bytes, _ = measure("SELECT * FROM t10 WHERE t10.a1 < 500 AND costly1(t10.u100)")
	t.Logf("range + UDF: %d B per call (parent: %d B)", bytes, rangeUDFParent)
	if 2*bytes > rangeUDFParent {
		t.Fatalf("a filter over a scan allocates %d B, more than half the parent's %d", bytes, rangeUDFParent)
	}
}

// TestPointLookupAllocCount holds the allocations of a warm point lookup
// through DB.Query — an index probe for one row (a1 is unique) and for ten
// (a10) — to a few above what it makes once a query without profiling keeps
// no row trace and one without caching builds no predicate cache (47 and 73
// allocations before, 38 and 64 since), and once the I/O tracker sets up only
// the pool shards a query touches: the one-row probe on a four-shard pool
// (Parallelism 4) touches one of them (45 allocations before, 39 since).
// Bringing back any one of the three trips it. Allocation counts differ under
// the race detector, which this test leaves alone.
func TestPointLookupAllocCount(t *testing.T) {
	if exec.SlabPoison {
		t.Skip("under the race detector sync.Pool drops a quarter of its puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		parallelism int
		sql         string
		budget      uint64
	}{
		{1, "SELECT * FROM t10 WHERE t10.a1 = 77", 40},
		{1, "SELECT * FROM t10 WHERE t10.a10 = 77", 66},
		{4, "SELECT * FROM t10 WHERE t10.a1 = 77", 41},
	} {
		db, err := Open(Config{Scale: 0.1, Tables: []int{10}, Parallelism: c.parallelism})
		if err != nil {
			t.Fatal(err)
		}
		const runs = 20
		if _, err := db.Query(c.sql, Migration); err != nil { // plan cached, slabs on the free list
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := db.Query(c.sql, Migration); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs := (after.Mallocs - before.Mallocs) / runs
		t.Logf("P=%d %s: %d allocs per call (budget %d)", c.parallelism, c.sql, allocs, c.budget)
		if allocs > c.budget {
			t.Errorf("P=%d %s: %d allocs per call, budget %d", c.parallelism, c.sql, allocs, c.budget)
		}
	}
}
