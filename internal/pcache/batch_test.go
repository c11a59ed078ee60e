package pcache

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"predplace/internal/expr"
)

// result is the deterministic tri-state "predicate result" the tests cache
// for a binding: a function of owner and key, so any two managers (and any
// two goroutines) agree on what a binding's entry must hold.
func result(owner string, key []byte) expr.Value {
	h := fnv.New32a()
	h.Write([]byte(owner))
	h.Write(key)
	switch h.Sum32() % 3 {
	case 0:
		return expr.B(true)
	case 1:
		return expr.B(false)
	}
	return expr.Null
}

// randBinding draws a 1–3 argument binding over a small mixed domain (NULL,
// bool, int, string), so streams repeat bindings within and across batches.
func randBinding(rng *rand.Rand) []byte {
	args := make([]expr.Value, 1+rng.Intn(3))
	for i := range args {
		switch rng.Intn(4) {
		case 0:
			args[i] = expr.Null
		case 1:
			args[i] = expr.B(rng.Intn(2) == 0)
		case 2:
			args[i] = expr.I(int64(rng.Intn(12)))
		default:
			args[i] = expr.S(fmt.Sprint("s", rng.Intn(6)))
		}
	}
	return []byte(Key(args))
}

// runBatch drives one GetBatch/PutBatch round the way the executor does:
// evaluate first-occurrence misses, copy duplicates, publish.
func runBatch(t *testing.T, m *Manager, owner string, keys [][]byte, out []BatchEntry) {
	t.Helper()
	m.GetBatch(owner, keys, out)
	for i := range out {
		switch out[i].State {
		case BatchMiss:
			if out[i].Dup != -1 {
				t.Fatalf("miss %d: Dup = %d, want -1", i, out[i].Dup)
			}
			out[i].Val = result(owner, keys[i])
		case BatchDup:
			j := out[i].Dup
			if j < 0 || int(j) >= i || out[j].State != BatchMiss || string(keys[j]) != string(keys[i]) {
				t.Fatalf("dup %d points at %d, not an earlier miss of the same binding", i, j)
			}
			out[i].Val = out[j].Val
		}
	}
	before := append([]BatchEntry(nil), out...)
	m.PutBatch(owner, keys, out)
	for i := range out {
		if out[i] != before[i] {
			t.Fatalf("PutBatch changed entry %d: %+v → %+v", i, before[i], out[i])
		}
	}
}

// TestBatchMatchesSequential is the batch protocol's contract: over any
// stream of bindings, GetBatch/PutBatch reports per key, counts, and leaves
// behind exactly what a Lookup-then-Store loop over the same stream does.
// Bounded tables run the protocol at width 1 only (Batchable), where it must
// reproduce the FIFO eviction sequence too.
func TestBatchMatchesSequential(t *testing.T) {
	for _, cfg := range []struct {
		name   string
		max    int
		widths []int
	}{
		{"by-predicate", 0, []int{1, 2, 7, 256, 257}},
		{"bounded-width-1", 5, []int{1}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				seq := NewManager(true, cfg.max)
				bat := NewManager(true, cfg.max)
				funcs := []string{"costly1", "costly100"}
				for step := 0; step < 30; step++ {
					// Interleaved owners.
					pred := rng.Intn(4)
					owner := seq.Owner(pred, funcs[pred%2])
					if owner != bat.Owner(pred, funcs[pred%2]) {
						t.Fatal("owners differ between managers")
					}
					keys := make([][]byte, cfg.widths[rng.Intn(len(cfg.widths))])
					for i := range keys {
						keys[i] = randBinding(rng)
					}
					out := make([]BatchEntry, len(keys))
					runBatch(t, bat, owner, keys, out)
					for i, key := range keys {
						v, hit := seq.Lookup(owner, string(key))
						if !hit {
							v = result(owner, key)
							seq.Store(owner, string(key), v)
						}
						if hit != (out[i].State != BatchMiss) || v != out[i].Val {
							t.Fatalf("seed %d step %d key %d: sequential hit=%v val=%v, batch %+v", seed, step, i, hit, v, out[i])
						}
					}
					sh, sm, se := seq.Stats()
					bh, bm, be := bat.Stats()
					if sh != bh || sm != bm || se != be {
						t.Fatalf("seed %d step %d: sequential stats %d/%d/%d, batch %d/%d/%d", seed, step, sh, sm, se, bh, bm, be)
					}
				}
			}
		})
	}
}

// TestConcurrentBatchAccess hammers one owner's table through both APIs from
// 8 goroutines (run under -race). Results are a function of the binding, so
// whatever the interleaving, every hit must return that value and the table
// must end up holding each binding once.
func TestConcurrentBatchAccess(t *testing.T) {
	m := NewManager(true, 0)
	owner := m.Owner(3, "costly100")
	const domain = 500
	bindings := make([][]byte, domain)
	for i := range bindings {
		bindings[i] = []byte(Key([]expr.Value{expr.I(int64(i)), expr.S("x")}))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			keys := make([][]byte, 64)
			out := make([]BatchEntry, len(keys))
			for round := 0; round < 200; round++ {
				for i := range keys {
					keys[i] = bindings[rng.Intn(domain)]
				}
				m.GetBatch(owner, keys, out)
				for i := range out {
					switch want := result(owner, keys[i]); out[i].State {
					case BatchMiss:
						out[i].Val = want
					case BatchHit:
						if out[i].Val != want {
							t.Errorf("GetBatch hit returned %v, want %v", out[i].Val, want)
						}
					}
				}
				m.PutBatch(owner, keys, out)
				key := bindings[rng.Intn(domain)]
				if v, ok := m.Lookup(owner, string(key)); !ok {
					m.Store(owner, string(key), result(owner, key))
				} else if want := result(owner, key); v != want {
					t.Errorf("Lookup hit returned %v, want %v", v, want)
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, entries := m.Stats()
	if entries > domain || entries == 0 {
		t.Fatalf("entries = %d, want 1..%d", entries, domain)
	}
	if want := int64(8 * 200 * 65); hits+misses != want {
		t.Fatalf("hits+misses = %d, want %d lookups", hits+misses, want)
	}
}
