package predplace_test

// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each figure benchmark runs the figure's query under each placement
// algorithm and reports the charged cost (random-I/O units — the paper's
// measurement) as a custom metric alongside wall time; the *shape* across
// sub-benchmarks is what reproduces the paper (who wins, by what factor).
//
// Run: go test -bench=. -benchmem

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"predplace"
	"predplace/internal/harness"
)

var (
	benchOnce sync.Once
	benchH    *harness.Harness
	benchErr  error
)

// benchHarness builds one shared benchmark database (scale 0.02 keeps the
// full matrix under a minute; use cmd/ppbench -scale for larger runs).
func benchHarness(b *testing.B) *harness.Harness {
	b.Helper()
	benchOnce.Do(func() {
		benchH, benchErr = harness.New(0.02)
		if benchErr == nil {
			benchErr = benchH.DB.RegisterFunc("bench_noop", 1, 0, 1,
				func(args []predplace.Value) predplace.Value { return predplace.Bool(true) })
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchH
}

// benchFigure runs one figure's query under each algorithm as sub-benchmarks.
func benchFigure(b *testing.B, sql string, caching bool, algos ...predplace.Algorithm) {
	h := benchHarness(b)
	h.DB.SetOptions(func(c *predplace.Config) { c.Caching = caching })
	defer h.DB.SetOptions(func(c *predplace.Config) { c.Caching = false })
	for _, a := range algos {
		b.Run(a.String(), func(b *testing.B) {
			var charged float64
			for i := 0; i < b.N; i++ {
				res, err := h.DB.Query(sql, a)
				if err != nil {
					b.Fatal(err)
				}
				charged = res.Stats.Charged()
			}
			b.ReportMetric(charged, "chargedIO")
		})
	}
}

var figureAlgos = []predplace.Algorithm{predplace.PushDown, predplace.PullUp, predplace.PullRank, predplace.Migration}

// BenchmarkFig3Query1 regenerates Figure 3 (PushDown ~3x worse).
func BenchmarkFig3Query1(b *testing.B) {
	benchFigure(b, harness.Query1, false, figureAlgos...)
}

// BenchmarkFig4Query2 regenerates Figure 4 (PullUp's error nearly insignificant).
func BenchmarkFig4Query2(b *testing.B) {
	benchFigure(b, harness.Query2, false, figureAlgos...)
}

// BenchmarkFig5Query3 regenerates Figure 5 (over-eager pullup on a
// duplicating join, caching off).
func BenchmarkFig5Query3(b *testing.B) {
	benchFigure(b, harness.Query3, false, figureAlgos...)
}

// BenchmarkFig5Query3Cached is §5.1's ablation: caching bounds the damage.
func BenchmarkFig5Query3Cached(b *testing.B) {
	benchFigure(b, harness.Query3, true, figureAlgos...)
}

// BenchmarkFig8Query4 regenerates Figure 8 (multi-join pullup).
func BenchmarkFig8Query4(b *testing.B) {
	benchFigure(b, harness.Query4, false, figureAlgos...)
}

// BenchmarkFig9Query5 regenerates Figure 9 (expensive primary join;
// PullUp's plan explodes, so it is excluded here — cmd/ppbench reports its
// DNF against the charged-cost budget).
func BenchmarkFig9Query5(b *testing.B) {
	benchFigure(b, harness.Query5, false, predplace.PushDown, predplace.PullRank, predplace.Migration)
}

// BenchmarkFig1Example regenerates the §3.1 example underlying Figures 1–2.
func BenchmarkFig1Example(b *testing.B) {
	benchFigure(b, harness.Fig1Query, true, predplace.Migration, predplace.LDL)
}

// BenchmarkTable1AlgorithmPlanning measures planning (not execution) time
// for every algorithm of Table 1 on the three-way Query 4.
func BenchmarkTable1AlgorithmPlanning(b *testing.B) {
	h := benchHarness(b)
	for _, a := range predplace.Algorithms() {
		b.Run(a.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.DB.Explain(harness.Query4, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Scan measures the raw substrate: a full sequential scan of
// the largest relation (Table 2's physical characteristics in action).
func BenchmarkTable2Scan(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		res, err := h.DB.Query("SELECT * FROM t10 WHERE bench_noop(t10.ua1)", predplace.PushDown)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Rows == 0 {
			b.Fatal("scan returned nothing")
		}
	}
}

// BenchmarkPlanTime5Way reproduces §4.4's worst case: planning a 5-way join
// with expensive predicates under Predicate Migration with unpruneable
// retention (the paper: < 8 s on a SparcStation 10).
func BenchmarkPlanTime5Way(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.DB.Explain(harness.PlanTimeQuery, predplace.Migration); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10SpectrumProbe measures the probe set used for the Figure 10
// eagerness spectrum (planning only, all algorithms).
func BenchmarkFig10SpectrumProbe(b *testing.B) {
	h := benchHarness(b)
	queries := []string{harness.Query1, harness.Query2, harness.Query3, harness.Query4}
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			for _, a := range []predplace.Algorithm{predplace.PushDown, predplace.PullRank, predplace.Migration, predplace.LDL, predplace.PullUp} {
				if _, err := h.DB.Explain(q, a); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkAblations runs the design-choice ablation suite (unpruneable
// retention, value-based ranks, bounded caches).
func BenchmarkAblations(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		rep, err := h.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed() {
			b.Fatalf("ablation shape failed:\n%s", rep)
		}
	}
}

// BenchmarkRequestPath drives Server.Handler() with server_mix's seven
// request classes in their 100/60/14/16/4/3/3 shares (bench/servermix.go) at
// its scale, constants from a 16-value hot set, with no network in between:
// the CPU profile of the request path (go test -run '^$' -bench RequestPath
// -cpuprofile …) without the benchmark's client in it.
func BenchmarkRequestPath(b *testing.B) {
	db, err := predplace.Open(predplace.Config{Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	card := int64(1000) // t1's cardinality at this scale
	classes := []struct {
		share  int
		sql    string
		lo, hi int64
	}{
		{100, "SELECT * FROM t10 WHERE t10.a1 = %d", 0, 10 * card},
		{60, "SELECT * FROM t10 WHERE t10.a10 = %d", 0, card},
		{14, "SELECT * FROM t5, t10 WHERE t5.a1 = t10.a1 AND t5.a100 = %d", 0, 5 * card / 100},
		{16, "SELECT * FROM t10 WHERE t10.a1 < %d AND costly1(t10.u100)", card / 10, card / 2},
		{4, "SELECT * FROM t10 WHERE t10.u10 < %d ORDER BY t10.a1 LIMIT 10", card / 2, card},
		{3, harness.Query1, 0, 0},
		{3, harness.Query4, 0, 0},
	}
	rng := rand.New(rand.NewSource(8))
	var bodies [][]byte
	for _, c := range classes {
		for i := 0; i < c.share; i++ {
			sql := c.sql
			if c.hi > 0 {
				sql = fmt.Sprintf(c.sql, c.lo+(c.hi-c.lo)*int64(rng.Intn(16))/16)
			}
			body, err := json.Marshal(predplace.QueryRequest{SQL: sql})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	rng.Shuffle(len(bodies), func(i, j int) { bodies[i], bodies[j] = bodies[j], bodies[i] })
	h := predplace.NewServer(db, predplace.ServerConfig{}).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(bodies[i%len(bodies)])))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}
