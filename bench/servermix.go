package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"predplace"
	"predplace/internal/datagen"
	"predplace/internal/harness"
)

// A request class of server_mix. share is requests per block of 200: light
// 80 %, medium 15 %, heavy 5 %, so that p50 sits inside the light classes and
// p90 inside the medium ones, not in a gap between them.
type mixClass struct {
	name  string
	share int
	// sql formats the statement for constant k; domain gives the constant's
	// range [lo, hi) from the scaled cardinality of t1 (BaseCard x scale).
	sql    func(k int64) string
	domain func(card1 int64) (lo, hi int64)
	// rows is the analytically known row count (-1 = checked otherwise).
	rows int
}

var mixClasses = []mixClass{
	{name: "point_a1", share: 100, rows: 1,
		sql:    func(k int64) string { return fmt.Sprintf("SELECT * FROM t10 WHERE t10.a1 = %d", k) },
		domain: func(c int64) (int64, int64) { return 0, 10 * c }},
	{name: "point_a10", share: 60, rows: 10,
		sql:    func(k int64) string { return fmt.Sprintf("SELECT * FROM t10 WHERE t10.a10 = %d", k) },
		domain: func(c int64) (int64, int64) { return 0, c }},
	{name: "index_nl", share: 14, rows: -1,
		sql: func(k int64) string {
			return fmt.Sprintf("SELECT * FROM t5, t10 WHERE t5.a1 = t10.a1 AND t5.a100 = %d", k)
		},
		domain: func(c int64) (int64, int64) { return 0, 5 * c / 100 }},
	{name: "range_udf", share: 16, rows: -1,
		sql: func(k int64) string {
			return fmt.Sprintf("SELECT * FROM t10 WHERE t10.a1 < %d AND costly1(t10.u100)", k)
		},
		domain: func(c int64) (int64, int64) { return c / 10, c / 2 }},
	{name: "order_limit", share: 4, rows: 10,
		sql: func(k int64) string {
			return fmt.Sprintf("SELECT * FROM t10 WHERE t10.u10 < %d ORDER BY t10.a1 LIMIT 10", k)
		},
		domain: func(c int64) (int64, int64) { return c / 2, c }},
	{name: "query1", share: 3, rows: -1, sql: func(int64) string { return harness.Query1 }},
	{name: "query4", share: 3, rows: -1, sql: func(int64) string { return harness.Query4 }},
}

const (
	mixBlock = 200 // Σ share
	// mixBlocks x mixBlock requests are generated; a pass that outruns them
	// wraps around (2x the requests a 15 s pass sends on two cores).
	mixBlocks   = 400
	hotSetSize  = 16
	hotPercent  = 80  // constants drawn from the hot set; the rest uniform
	verifyCount = 200 // requests re-run serially through DB.Query afterwards
)

type mixRequest struct {
	class int
	sql   string
	body  []byte // the POST /query body
}

// genMix builds the request stream from the seed alone: whole blocks, each
// holding every class in its exact share, shuffled.
func genMix(seed int64, scale float64, blocks int) ([]mixRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	card1 := int64(float64(datagen.BaseCard) * scale)
	hot := make([][]int64, len(mixClasses))
	draw := func(c int) int64 {
		lo, hi := mixClasses[c].domain(card1)
		return lo + rng.Int63n(max(hi-lo, 1))
	}
	for c, cl := range mixClasses {
		if cl.domain == nil {
			continue
		}
		for i := 0; i < hotSetSize; i++ {
			hot[c] = append(hot[c], draw(c))
		}
	}
	var slots []int
	for c, cl := range mixClasses {
		for i := 0; i < cl.share; i++ {
			slots = append(slots, c)
		}
	}
	out := make([]mixRequest, 0, blocks*mixBlock)
	for b := 0; b < blocks; b++ {
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, c := range slots {
			var k int64
			if mixClasses[c].domain != nil {
				if rng.Intn(100) < hotPercent {
					k = hot[c][rng.Intn(hotSetSize)]
				} else {
					k = draw(c)
				}
			}
			sql := mixClasses[c].sql(k)
			body, err := json.Marshal(predplace.QueryRequest{SQL: sql})
			if err != nil {
				return nil, err
			}
			out = append(out, mixRequest{class: c, sql: sql, body: body})
		}
	}
	return out, nil
}

// serverMix is the HTTP workload: one operation is one POST /query.
type serverMix struct {
	database *predplace.DB
	srv      *predplace.Server
	ts       *httptest.Server
	client   *http.Client
	reqs     []mixRequest
	want     map[string]outcome // golden outcomes of the fixed statements

	mu sync.Mutex
	// seen records what each request index answered, for the serial re-run.
	seen map[int]outcome
	fail string
}

func openServerMix(e *env, scale float64, want map[string]outcome) (instance, error) {
	blocks := mixBlocks
	if e.quick {
		blocks = 2
	}
	// The stream is the workload's input, not part of the system's set-up,
	// but it is regenerated here so that every set-up is self-contained.
	reqs, err := genMix(e.seed, scale, blocks)
	if err != nil {
		return nil, err
	}
	db, err := openDB(predplace.Config{Scale: scale})
	if err != nil {
		return nil, err
	}
	srv := predplace.NewServer(db, predplace.ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: e.c, MaxIdleConnsPerHost: e.c, MaxConnsPerHost: e.c,
	}}
	return &serverMix{database: db, srv: srv, ts: ts, client: client, reqs: reqs,
		want: want, seen: make(map[int]outcome)}, nil
}

func (m *serverMix) db() *predplace.DB { return m.database }
func (m *serverMix) blockOps() int     { return mixBlock }

func (m *serverMix) close() {
	m.client.CloseIdleConnections()
	m.ts.Close()
}

func (m *serverMix) failure() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fail
}

func (m *serverMix) failf(format string, args ...any) {
	m.mu.Lock()
	if m.fail == "" {
		m.fail = fmt.Sprintf(format, args...)
	}
	m.mu.Unlock()
}

// gateSQL is one statement of each class, at the class's first hot constant.
func (m *serverMix) gateSQL() []namedSQL {
	var out []namedSQL
	seen := map[int]bool{}
	for _, r := range m.reqs {
		if !seen[r.class] {
			seen[r.class] = true
			out = append(out, namedSQL{mixClasses[r.class].name, r.sql})
		}
	}
	return out
}

func (m *serverMix) probeSQL() []string {
	var out []string
	for _, g := range m.gateSQL() {
		out = append(out, g.sql)
	}
	return out
}

// tailField reads a number that follows the last occurrence of key in an
// indented JSON body. The response carries row_count and charged after the
// rows, so this avoids decoding hundreds of kilobytes of rows on the client.
func tailField(body []byte, key string) (float64, bool) {
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := bytes.TrimLeft(body[i+len(key):], " ")
	end := bytes.IndexAny(rest, ",\n}")
	if end < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest[:end])), 64)
	return v, err == nil
}

// post sends one request and returns what the server answered.
func (m *serverMix) post(body []byte, tr *tracer, root, op int32) (got outcome, bytesRead int, ns int64, err error) {
	id := tr.begin("http.roundtrip", root, op)
	t0 := time.Now()
	resp, err := m.client.Post(m.ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(id)
		return got, 0, time.Since(t0).Nanoseconds(), err
	}
	data, err := io.ReadAll(resp.Body)
	//pplint:ignore errdrop the body is fully read; closing a drained response cannot lose data
	resp.Body.Close()
	ns = time.Since(t0).Nanoseconds()
	tr.end(id)
	if err != nil {
		return got, len(data), ns, err
	}
	if resp.StatusCode != http.StatusOK {
		return got, len(data), ns, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	id = tr.begin("bench.decode", root, op)
	defer tr.end(id)
	rows, ok1 := tailField(data, `"row_count":`)
	charged, ok2 := tailField(data, `"charged":`)
	if !ok1 || !ok2 {
		return got, len(data), ns, fmt.Errorf("response without row_count/charged")
	}
	if bytes.Contains(data[max(0, len(data)-200):], []byte(`"dnf": true`)) {
		return got, len(data), ns, fmt.Errorf("did not finish")
	}
	return outcome{Rows: int(rows), Charged: charged}, len(data), ns, nil
}

func (m *serverMix) op(i int, tr *tracer, acc *layerAcc) opResult {
	req := m.reqs[i%len(m.reqs)]
	cl := mixClasses[req.class]
	root := tr.begin("op", -1, int32(i))
	defer tr.end(root)
	got, n, ns, err := m.post(req.body, tr, root, int32(i))
	acc.addResponse(n)
	if err != nil {
		m.failf("%s %q: %v", cl.name, req.sql, err)
		return opResult{ns: ns}
	}
	ok := true
	if cl.rows >= 0 && got.Rows != cl.rows {
		m.failf("%s %q: %d rows, want %d", cl.name, req.sql, got.Rows, cl.rows)
		ok = false
	}
	if w, fixed := m.want[cl.name]; fixed && got.Rows != w.Rows {
		m.failf("%s: %d rows, golden %d", cl.name, got.Rows, w.Rows)
		ok = false
	}
	m.mu.Lock()
	m.seen[i] = got
	m.mu.Unlock()
	return opResult{ns: ns, charged: got.Charged, ok: ok}
}

// verifySample re-runs a seed-chosen sample of the answered requests
// serially through DB.Query and compares row count and charged cost: the
// engine's isolation claim is that concurrency changes neither. It returns
// the number of mismatches.
func (m *serverMix) verifySample(seed int64, ops int) int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	bad := 0
	for n := 0; n < min(verifyCount, ops); n++ {
		i := rng.Intn(ops)
		got, ok := m.seen[i]
		if !ok {
			continue // the request itself failed and is already counted
		}
		req := m.reqs[i%len(m.reqs)]
		res, err := m.database.Query(req.sql, predplace.Migration)
		if err != nil || len(res.Rows) != got.Rows || res.Stats.Charged() != got.Charged {
			m.failf("re-run of %q: served %+v, serial rows=%d charged=%v err=%v",
				req.sql, got, len(res.Rows), res.Stats.Charged(), err)
			bad++
		}
	}
	return bad
}

// serialTimes runs a sample of the stream serially through DB.Query,
// Server.Query and HTTP, back to back for each request so that the three see
// the same machine state, after an untimed DB.Query has put the plan in the
// cache. It returns each entry point's per-request durations in ns.
func (m *serverMix) serialTimes(sample []int) (db, server, http []float64, err error) {
	for _, i := range sample {
		req := m.reqs[i]
		if _, err = m.database.Query(req.sql, predplace.Migration); err != nil {
			break
		}
		t0 := time.Now()
		if _, err = m.database.Query(req.sql, predplace.Migration); err != nil {
			break
		}
		t1 := time.Now()
		if _, err = m.srv.Query(context.Background(), "", req.sql, predplace.Migration); err != nil {
			break
		}
		t2 := time.Now()
		if _, _, _, err = m.post(req.body, nil, -1, -1); err != nil {
			break
		}
		t3 := time.Now()
		db = append(db, float64(t1.Sub(t0).Nanoseconds()))
		server = append(server, float64(t2.Sub(t1).Nanoseconds()))
		http = append(http, float64(t3.Sub(t2).Nanoseconds()))
	}
	return db, server, http, err
}
