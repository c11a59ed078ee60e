package predplace_test

// Plan-cache unit tests: the LRU's hit/miss/eviction accounting, SQL
// normalization, knob- and algorithm-keying, catalog-version invalidation,
// and the disabled configuration.

import (
	"testing"

	"predplace"
)

func cacheDelta(t *testing.T, db *predplace.DB, f func()) (hits, misses, evictions int64) {
	t.Helper()
	h0, m0, e0, _ := db.PlanCacheStats()
	f()
	h1, m1, e1, _ := db.PlanCacheStats()
	return h1 - h0, m1 - m0, e1 - e0
}

func mustQuery(t *testing.T, db *predplace.DB, sql string) *predplace.Result {
	t.Helper()
	res, err := db.Query(sql, predplace.Migration)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return res
}

func TestPlanCacheHitMissNormalization(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM t1 WHERE costly10(t1.u10)"

	if h, m, _ := cacheDelta(t, db, func() { mustQuery(t, db, sql) }); h != 0 || m != 1 {
		t.Fatalf("first run: hits=%d misses=%d, want 0/1", h, m)
	}
	if h, m, _ := cacheDelta(t, db, func() { mustQuery(t, db, sql) }); h != 1 || m != 0 {
		t.Fatalf("second run: hits=%d misses=%d, want 1/0", h, m)
	}
	// Whitespace differences normalize onto the same key.
	spaced := "SELECT  *  FROM t1\n\tWHERE costly10(t1.u10)"
	if h, m, _ := cacheDelta(t, db, func() { mustQuery(t, db, spaced) }); h != 1 || m != 0 {
		t.Fatalf("whitespace variant: hits=%d misses=%d, want 1/0", h, m)
	}
	// A different algorithm is a different plan: no false sharing.
	if h, m, _ := cacheDelta(t, db, func() {
		if _, err := db.Query(sql, predplace.PushDown); err != nil {
			t.Fatal(err)
		}
	}); h != 0 || m != 1 {
		t.Fatalf("other algorithm: hits=%d misses=%d, want 0/1", h, m)
	}
	// A planning-affecting knob is part of the key.
	db.SetOptions(func(c *predplace.Config) { c.Caching = true })
	if h, m, _ := cacheDelta(t, db, func() { mustQuery(t, db, sql) }); h != 0 || m != 1 {
		t.Fatalf("caching knob flip: hits=%d misses=%d, want 0/1", h, m)
	}
	db.SetOptions(func(c *predplace.Config) { c.Caching = false })
	if h, m, _ := cacheDelta(t, db, func() { mustQuery(t, db, sql) }); h != 1 || m != 0 {
		t.Fatalf("caching knob restore: hits=%d misses=%d, want 1/0", h, m)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{1, 2}, PlanCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	q1 := "SELECT * FROM t1 WHERE t1.u10 = 1"
	q2 := "SELECT * FROM t1 WHERE t1.u10 = 2"
	q3 := "SELECT * FROM t1 WHERE t1.u10 = 3"
	mustQuery(t, db, q1)
	mustQuery(t, db, q2)
	// q3 overflows the 2-entry cache, evicting the least recently used (q1).
	if _, _, e := cacheDelta(t, db, func() { mustQuery(t, db, q3) }); e != 1 {
		t.Fatalf("third statement: evictions=%d, want 1", e)
	}
	if _, _, _, entries := db.PlanCacheStats(); entries != 2 {
		t.Fatalf("entries=%d, want 2", entries)
	}
	if h, m, _ := cacheDelta(t, db, func() { mustQuery(t, db, q1) }); h != 0 || m != 1 {
		t.Fatalf("evicted statement: hits=%d misses=%d, want 0/1", h, m)
	}
	// q2 was promoted by q3's arrival? No — LRU order is q3, q1 after the
	// re-plan above; q2 is now the victim. Either way the recently used q1
	// must still be resident.
	if h, _, _ := cacheDelta(t, db, func() { mustQuery(t, db, q1) }); h != 1 {
		t.Fatal("recently re-planned statement missed")
	}
}

func TestPlanCacheInvalidation(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT COUNT(*) FROM t1 WHERE t1.u10 < 5"
	before := mustQuery(t, db, sql)
	if h, m, _ := cacheDelta(t, db, func() { mustQuery(t, db, sql) }); h != 1 || m != 0 {
		t.Fatalf("warm: hits=%d misses=%d, want 1/0", h, m)
	}
	// Insert bumps the catalog version: the old key is stale and the next
	// run re-plans — and sees the new row.
	if err := db.Insert("t1", 1_000_000, 1, 1, 1_000_000, 1, 1, 1, "fresh"); err != nil {
		t.Fatal(err)
	}
	var after *predplace.Result
	if h, m, _ := cacheDelta(t, db, func() { after = mustQuery(t, db, sql) }); h != 0 || m != 1 {
		t.Fatalf("after Insert: hits=%d misses=%d, want 0/1 (stale key must not hit)", h, m)
	}
	wantCount := before.Rows[0][0].I + 1
	if got := after.Rows[0][0].I; got != wantCount {
		t.Fatalf("count after insert = %d, want %d", got, wantCount)
	}
	// Analyze also bumps the version (statistics drive planning).
	if err := db.Analyze("t1"); err != nil {
		t.Fatal(err)
	}
	if h, m, _ := cacheDelta(t, db, func() { mustQuery(t, db, sql) }); h != 0 || m != 1 {
		t.Fatalf("after Analyze: hits=%d misses=%d, want 0/1", h, m)
	}
}

// TestPlanCacheRegisterFuncInvalidation pins the fix for stale plans
// surviving a function re-registration: replacing a function's metadata bumps
// the catalog version, so the next lookup misses and re-plans under the new
// declaration instead of silently serving the plan optimized for the old one.
func TestPlanCacheRegisterFuncInvalidation(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterFunc("flip", 1, 50, 0.01, func(args []predplace.Value) predplace.Value {
		return predplace.Bool(true)
	}); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM t1, t2 WHERE t1.ua1 = t2.ua1 AND flip(t1.u10)"
	mustQuery(t, db, sql)
	if h, m, _ := cacheDelta(t, db, func() { mustQuery(t, db, sql) }); h != 1 || m != 0 {
		t.Fatalf("warm: hits=%d misses=%d, want 1/0", h, m)
	}
	// Re-registering with different metadata replaces the definition; the
	// cached plan was optimized for sel=0.01 and must not be served again.
	if err := db.RegisterFunc("flip", 1, 50, 0.99, func(args []predplace.Value) predplace.Value {
		return predplace.Bool(true)
	}); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if h, m, _ := cacheDelta(t, db, func() { mustQuery(t, db, sql) }); h != 0 || m != 1 {
		t.Fatalf("after re-register: hits=%d misses=%d, want 0/1 (stale plan served)", h, m)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{1}, PlanCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM t1 WHERE t1.u10 = 1"
	mustQuery(t, db, sql)
	mustQuery(t, db, sql)
	if h, m, e, entries := db.PlanCacheStats(); h != 0 || m != 0 || e != 0 || entries != 0 {
		t.Fatalf("disabled cache counted: %d/%d/%d/%d", h, m, e, entries)
	}
}

// TestPreparedStatementPlanFixed pins the documented Prepare contract: the
// plan is fixed at Prepare time, while Query's cache re-plans on catalog
// changes.
func TestPreparedStatementPlanFixed(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT COUNT(*) FROM t1 WHERE t1.u10 < 5"
	p, err := db.Prepare(sql, predplace.Migration)
	if err != nil {
		t.Fatal(err)
	}
	if p.SQL() != sql || p.Plan() == "" {
		t.Fatalf("prepared statement accessors: sql=%q plan=%q", p.SQL(), p.Plan())
	}
	before, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t1", 2_000_000, 1, 1, 2_000_000, 1, 1, 1, "fresh"); err != nil {
		t.Fatal(err)
	}
	// Same plan, current data: the new row is visible without re-preparing.
	after, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows[0][0].I != before.Rows[0][0].I+1 {
		t.Fatalf("prepared re-exec count = %d, want %d", after.Rows[0][0].I, before.Rows[0][0].I+1)
	}
}

// TestPreparedPlanIsExplain: a prepared statement's Plan is the text
// EXPLAIN prints, Robust's interval line included.
func TestPreparedPlanIsExplain(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.005, Tables: []int{3, 10}})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM t3, t10 WHERE t3.a10 = t10.a10 AND costly100(t3.ua1)"
	for _, algo := range []predplace.Algorithm{predplace.Migration, predplace.Robust} {
		p, err := db.Prepare(sql, algo)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Explain(sql, algo)
		if err != nil {
			t.Fatal(err)
		}
		if p.Plan() != want {
			t.Errorf("%s: Plan() is\n%s\nEXPLAIN prints\n%s", algo, p.Plan(), want)
		}
	}
}
