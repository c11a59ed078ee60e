package predplace_test

// Server tests: admission control (shedding without a queue, queueing with
// one), per-tenant quota clamps, and the HTTP surface.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"predplace"
	pcost "predplace/internal/cost"
)

// napDB opens a tiny database and registers nap1(x): an expensive predicate
// that sleeps, so a query occupies its execution slot while yielding the
// processor — admission contention is then deterministic even on one core.
func napDB(t *testing.T) *predplace.DB {
	t.Helper()
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	err = db.RegisterFunc("nap1", 1, 1, 0.5, func(args []predplace.Value) predplace.Value {
		time.Sleep(time.Millisecond)
		return predplace.Bool(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

const napSQL = "SELECT COUNT(*) FROM t1 WHERE nap1(t1.u10)"

func TestServerShedsWithoutQueue(t *testing.T) {
	srv := predplace.NewServer(napDB(t), predplace.ServerConfig{
		MaxConcurrent: 1,
		MaxQueue:      -1,
	})
	const burst = 8
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		served     int
		shed       int
		unexpected []error
	)
	start := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := srv.Query(context.Background(), "t", napSQL, predplace.Migration)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, predplace.ErrOverloaded):
				shed++
			default:
				unexpected = append(unexpected, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if len(unexpected) > 0 {
		t.Fatalf("unexpected errors: %v", unexpected)
	}
	if served == 0 || shed == 0 || served+shed != burst {
		t.Fatalf("served=%d shed=%d of %d: want both nonzero and summing to the burst", served, shed, burst)
	}
	st := srv.Stats()
	if st.Served != int64(served) || st.Shed != int64(shed) {
		t.Fatalf("stats served=%d shed=%d, counted %d/%d", st.Served, st.Shed, served, shed)
	}
}

func TestServerQueueAbsorbsBurst(t *testing.T) {
	// One slot but a queue deep enough for everyone and a generous wait:
	// nothing sheds, every query runs.
	srv := predplace.NewServer(napDB(t), predplace.ServerConfig{
		MaxConcurrent: 1,
		MaxQueue:      16,
		QueueWait:     30 * time.Second,
	})
	const burst = 6
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	start := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := srv.Query(context.Background(), "t", napSQL, predplace.Migration); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Served != burst || st.Shed != 0 {
		t.Fatalf("served=%d shed=%d, want %d/0", st.Served, st.Shed, burst)
	}
}

func TestServerTenantQuota(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	srv := predplace.NewServer(db, predplace.ServerConfig{MaxConcurrent: 2})
	sql := "SELECT * FROM t1, t2 WHERE t1.ua1 = t2.ua1 AND costly10(t1.u10)"

	// Reference cost from an unlimited tenant.
	free, err := srv.Query(context.Background(), "free", sql, predplace.Migration)
	if err != nil || free.DNF {
		t.Fatalf("unlimited tenant: res=%+v err=%v", free, err)
	}
	cost := free.Stats.Charged()

	// A quota below one query's cost: the first run is clamped to the
	// remainder and DNFs, charging what it consumed; the second finds the
	// quota exhausted and is rejected without running.
	srv.SetTenantQuota("capped", cost/2)
	res, err := srv.Query(context.Background(), "capped", sql, predplace.Migration)
	if err != nil {
		t.Fatalf("clamped query errored: %v", err)
	}
	if !res.DNF {
		t.Fatal("query past the tenant quota must DNF")
	}
	used, quota := srv.TenantUsage("capped")
	if used <= 0 || quota != cost/2 {
		t.Fatalf("tenant usage after DNF: used=%v quota=%v", used, quota)
	}
	if _, err := srv.Query(context.Background(), "capped", sql, predplace.Migration); !errors.Is(err, predplace.ErrQuotaExceeded) {
		t.Fatalf("exhausted tenant: want ErrQuotaExceeded, got %v", err)
	}
	st := srv.Stats()
	if st.QuotaRejected != 1 || st.DNF != 1 {
		t.Fatalf("stats quotaRejected=%d dnf=%d, want 1/1", st.QuotaRejected, st.DNF)
	}

	// A generous quota runs to completion and meters cumulative usage;
	// other tenants are unaffected throughout.
	srv.SetTenantQuota("roomy", cost*10)
	for i := 0; i < 2; i++ {
		res, err := srv.Query(context.Background(), "roomy", sql, predplace.Migration)
		if err != nil || res.DNF {
			t.Fatalf("roomy run %d: res=%+v err=%v", i, res, err)
		}
	}
	if used, _ := srv.TenantUsage("roomy"); used != 2*cost {
		t.Fatalf("roomy used %v, want %v", used, 2*cost)
	}
	if again, err := srv.Query(context.Background(), "free", sql, predplace.Migration); err != nil || again.DNF {
		t.Fatalf("unlimited tenant after others: res=%+v err=%v", again, err)
	}

	// A clamped query stops within the bound of DESIGN.md §13: one charge
	// past the one that crossed the quota (the server runs serially). event
	// is the statement's largest charge: a costly100 or costly10 call, or the
	// join's Grace spill of one batch of a 100-row table.
	for _, st := range []struct {
		sql   string
		event float64
	}{
		{"SELECT * FROM t1 WHERE costly100(t1.u10)", 100},
		{sql, 10},
		{"SELECT * FROM t1, t2 WHERE t1.u10 = t2.u10", 100 * pcost.HashSpillPerTuple},
	} {
		free, err := srv.Query(context.Background(), "free", st.sql, predplace.Migration)
		if err != nil || free.DNF {
			t.Fatalf("%s unlimited: res=%+v err=%v", st.sql, free, err)
		}
		for i, f := range []float64{0.13, 0.5, 0.77} {
			tenant := fmt.Sprintf("bound-%d-%s", i, st.sql)
			quota := f * free.Stats.Charged()
			srv.SetTenantQuota(tenant, quota)
			res, err := srv.Query(context.Background(), tenant, st.sql, predplace.Migration)
			if err != nil || !res.DNF {
				t.Fatalf("%s under a quota of %v: want DNF, got res=%+v err=%v", st.sql, quota, res, err)
			}
			if used, _ := srv.TenantUsage(tenant); used-quota > st.event {
				t.Fatalf("%s under a quota of %v: used %v, %v past it; the bound is one charge (%v)", st.sql, quota, used, used-quota, st.event)
			}
		}
	}
}

func TestServerHTTP(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	srv := predplace.NewServer(db, predplace.ServerConfig{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp, m
	}

	resp, m := post(`{"tenant":"web","sql":"SELECT COUNT(*) FROM t1 WHERE t1.u10 < 5","algorithm":"migration"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d body %v", resp.StatusCode, m)
	}
	if m["row_count"].(float64) != 1 || m["charged"].(float64) <= 0 {
		t.Fatalf("query response: %v", m)
	}

	resp, m = post(`{"sql":""}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sql: status %d body %v", resp.StatusCode, m)
	}
	resp, m = post(`{"sql":"SELECT * FROM t1","algorithm":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad algorithm: status %d body %v", resp.StatusCode, m)
	}
	resp, m = post(`{"sql":"SELECT * FROM missing"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing table: status %d body %v", resp.StatusCode, m)
	}

	// An exhausted quota answers 429.
	srv.SetTenantQuota("broke", 0.000001)
	post(`{"tenant":"broke","sql":"SELECT COUNT(*) FROM t1 WHERE t1.u10 < 5"}`)
	resp, m = post(`{"tenant":"broke","sql":"SELECT COUNT(*) FROM t1 WHERE t1.u10 < 5"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted quota: status %d body %v", resp.StatusCode, m)
	}

	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var st predplace.ServerStats
	if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served < 1 || st.QuotaRejected < 1 {
		t.Fatalf("stats: %+v", st)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", health.StatusCode)
	}
}
