package pcache

import (
	"sync"
	"testing"
	"time"

	"predplace/internal/expr"
)

func TestLookupStore(t *testing.T) {
	m := NewManager(true, 0)
	k := Key([]expr.Value{expr.I(1), expr.S("x")})
	if _, ok := m.Lookup("p:0", k); ok {
		t.Fatal("fresh cache should miss")
	}
	m.Store("p:0", k, expr.B(true))
	v, ok := m.Lookup("p:0", k)
	if !ok || !v.Equal(expr.B(true)) {
		t.Fatalf("Lookup = %v %v", v, ok)
	}
	// Different predicate id: separate table.
	if _, ok := m.Lookup("p:1", k); ok {
		t.Fatal("caches must be per-predicate")
	}
	hits, misses, entries := m.Stats()
	if hits != 1 || misses != 2 || entries != 1 {
		t.Fatalf("stats = %d %d %d", hits, misses, entries)
	}
}

func TestTriState(t *testing.T) {
	// The cache stores true, false, or NULL — NULL is a real entry
	// (beardless people, per the paper's example), not a miss.
	m := NewManager(true, 0)
	m.Store("p:7", "k", expr.Null)
	v, ok := m.Lookup("p:7", "k")
	if !ok || !v.IsNull() {
		t.Fatal("NULL result must be cached and distinguishable from a miss")
	}
}

func TestDisabled(t *testing.T) {
	m := NewManager(false, 0)
	m.Store("p:0", "k", expr.B(true))
	if _, ok := m.Lookup("p:0", "k"); ok {
		t.Fatal("disabled cache must always miss")
	}
	if m.Enabled() {
		t.Fatal("Enabled should be false")
	}
	var nilMgr *Manager
	if nilMgr.Enabled() {
		t.Fatal("nil manager must be disabled")
	}
	nilMgr.Reset() // must not panic
}

func TestMaxEntriesEviction(t *testing.T) {
	m := NewManager(true, 10)
	for i := 0; i < 100; i++ {
		m.Store("p:0", Key([]expr.Value{expr.I(int64(i))}), expr.B(true))
	}
	_, _, entries := m.Stats()
	if entries > 10 {
		t.Fatalf("cache exceeded bound: %d entries", entries)
	}
}

func TestReset(t *testing.T) {
	m := NewManager(true, 0)
	m.Store("p:0", "k", expr.B(false))
	m.Lookup("p:0", "k")
	m.Reset()
	if _, ok := m.Lookup("p:0", "k"); ok {
		t.Fatal("Reset must clear entries")
	}
	hits, misses, entries := m.Stats()
	if hits != 0 || misses != 1 || entries != 0 {
		t.Fatalf("counters after reset: %d %d %d", hits, misses, entries)
	}
}

// TestLookupReleasesReadLock: every path of a lookup releases the manager's
// lock — a found table too — or the next Reset, which takes it to write,
// blocks for good. The wait is bounded, so a held lock fails here by name
// instead of at go test's timeout.
func TestLookupReleasesReadLock(t *testing.T) {
	m := NewManager(true, 0)
	m.Store("p:0", "k", expr.B(true))
	m.Lookup("p:0", "k")
	m.GetBatch("p:0", [][]byte{[]byte("k")}, make([]BatchEntry, 1))
	done := make(chan struct{})
	go func() {
		m.Reset()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Reset did not return within 5s: a lookup kept the manager's read lock")
	}
}

func TestKeyDistinguishesBindings(t *testing.T) {
	k1 := Key([]expr.Value{expr.I(1), expr.I(2)})
	k2 := Key([]expr.Value{expr.I(12)})
	if k1 == k2 {
		t.Fatal("keys must be binding-injective")
	}
	// Multi-column binding, as in the paper's (student.mother, student.dept) example.
	k3 := Key([]expr.Value{expr.S("ann"), expr.S("cs")})
	k4 := Key([]expr.Value{expr.S("ann"), expr.S("ee")})
	if k3 == k4 {
		t.Fatal("composite bindings must differ")
	}
}

func TestScopeOwner(t *testing.T) {
	pred := NewManagerScoped(true, 0, ByPredicate)
	fn := NewManagerScoped(true, 0, ByFunction)
	if pred.Owner(3, "costly10") != "p:3" {
		t.Fatalf("predicate owner = %q", pred.Owner(3, "costly10"))
	}
	if fn.Owner(3, "costly10") != "f:costly10" {
		t.Fatalf("function owner = %q", fn.Owner(3, "costly10"))
	}
	if pred.Scope() != ByPredicate || fn.Scope() != ByFunction {
		t.Fatal("Scope() wrong")
	}
	var nilMgr *Manager
	if nilMgr.Scope() != ByPredicate {
		t.Fatal("nil manager should default to ByPredicate")
	}
}

func TestByFunctionSharesAcrossPredicates(t *testing.T) {
	m := NewManagerScoped(true, 0, ByFunction)
	k := Key([]expr.Value{expr.I(7)})
	// Predicate 0 stores; predicate 1 calling the same function hits.
	m.Store(m.Owner(0, "costly10"), k, expr.B(true))
	if v, ok := m.Lookup(m.Owner(1, "costly10"), k); !ok || !v.Equal(expr.B(true)) {
		t.Fatal("per-function cache must share across predicates")
	}
	// A different function does not share.
	if _, ok := m.Lookup(m.Owner(1, "costly100"), k); ok {
		t.Fatal("different functions must not share")
	}
}

func TestTernaryEntriesDistinct(t *testing.T) {
	// One table holding all three truth values: each entry must come back
	// as itself, and all three must be distinguishable from a miss.
	m := NewManager(true, 0)
	want := map[string]expr.Value{
		"kt": expr.B(true),
		"kf": expr.B(false),
		"kn": expr.Null,
	}
	for k, v := range want {
		m.Store("p:0", k, v)
	}
	for k, v := range want {
		got, ok := m.Lookup("p:0", k)
		if !ok {
			t.Fatalf("stored %s entry reported as a miss", v)
		}
		if got.IsNull() != v.IsNull() || (!v.IsNull() && !got.Equal(v)) {
			t.Fatalf("Lookup(%q) = %s, want %s", k, got, v)
		}
	}
	if _, ok := m.Lookup("p:0", "absent"); ok {
		t.Fatal("unknown binding must miss")
	}
	if _, _, entries := m.Stats(); entries != 3 {
		t.Fatalf("entries = %d, want 3", entries)
	}
}

func TestConcurrentAccess(t *testing.T) {
	// The manager guards its tables with a mutex; hammer every method from
	// many goroutines so `go test -race` proves it. (Execution today is
	// single-threaded per Env, but the manager's API promises safety.)
	m := NewManager(true, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := m.Owner(g%3, "costly10")
			for i := 0; i < 500; i++ {
				k := Key([]expr.Value{expr.I(int64(i % 16))})
				switch i % 5 {
				case 0:
					m.Store(owner, k, expr.B(i%2 == 0))
				case 1:
					m.Store(owner, k, expr.Null)
				case 2:
					m.Lookup(owner, k)
				case 3:
					m.Stats()
				default:
					if i%100 == 4 {
						m.Reset()
					} else {
						m.Lookup(owner, k)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, entries := m.Stats()
	if hits < 0 || misses < 0 || entries < 0 {
		t.Fatalf("stats went negative: %d %d %d", hits, misses, entries)
	}
}
