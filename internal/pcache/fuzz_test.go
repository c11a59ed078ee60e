package pcache

import (
	"fmt"
	"slices"
	"testing"

	"predplace/internal/expr"
)

// alphabet is the fuzz target's binding domain: small enough that a stream
// repeats bindings within and across batches, mixed in kind and arity.
var alphabet = func() [][]byte {
	out := [][]byte{[]byte(Key([]expr.Value{expr.Null}))}
	for i := int64(0); i < 8; i++ {
		out = append(out,
			[]byte(Key([]expr.Value{expr.I(i)})),
			[]byte(Key([]expr.Value{expr.S(fmt.Sprint("s", i))})),
			[]byte(Key([]expr.Value{expr.I(i), expr.Null})))
	}
	return out
}()

// model is the cache as §5.1 states it: a map from binding to result and,
// for a bounded table, its bindings oldest first.
type model struct {
	max   int
	m     map[string]expr.Value
	order []string
}

func (r *model) store(key string, v expr.Value) {
	if _, ok := r.m[key]; !ok {
		if r.max > 0 && len(r.m) == r.max {
			delete(r.m, r.order[0])
			r.order = r.order[1:]
		}
		r.order = append(r.order, key)
	}
	r.m[key] = v
}

// contents lists the model's entries as "key=result": oldest first when
// bounded, sorted otherwise.
func (r *model) contents() []string {
	var out []string
	for _, key := range r.order {
		out = append(out, fmt.Sprintf("%x=%v", key, r.m[key]))
	}
	if r.max == 0 {
		slices.Sort(out)
	}
	return out
}

// contents lists the owner's table the same way, and checks the table's own
// invariants on the way: each shard's count is its occupied slots, each
// entry is found from its hash where it lies, and a bounded table's queue
// names exactly its entries.
func contents(t *testing.T, m *Manager, owner string) []string {
	t.Helper()
	c := m.table(owner, false)
	if c == nil {
		return nil
	}
	var out []string
	for si := range c.shards {
		s := &c.shards[si]
		n := 0
		for i, e := range s.slots {
			if e.res == triEmpty {
				continue
			}
			n++
			if j, ok := find(s.slots, e.hash, e.key); !ok || j != uint64(i) {
				t.Fatalf("shard %d: entry %x at slot %d is not found from its hash", si, e.key, i)
			}
			if s.max == 0 {
				out = append(out, fmt.Sprintf("%x=%v", e.key, e.res.value()))
			}
		}
		if n != s.n {
			t.Fatalf("shard %d: %d occupied slots, count %d", si, n, s.n)
		}
		if s.max > 0 {
			if len(s.fifo) != s.n {
				t.Fatalf("shard %d: %d queued bindings, %d entries", si, len(s.fifo), s.n)
			}
			for k := range s.fifo {
				q := s.fifo[(s.head+k)%len(s.fifo)]
				i, ok := find(s.slots, q.hash, q.key)
				if !ok {
					t.Fatalf("queued binding %x is not in the table", q.key)
				}
				out = append(out, fmt.Sprintf("%x=%v", q.key, s.slots[i].res.value()))
			}
		}
	}
	if m.maxEntries == 0 {
		slices.Sort(out)
	}
	return out
}

// FuzzBatchMatchesSequential is TestBatchMatchesSequential over arbitrary
// streams. The first byte picks the table: unbounded, or bounded to 1–8
// entries; then each batch is a width byte and that many bindings, one byte
// each, from alphabet. Bounded tables run the batch protocol one row at a
// time, as the executor does (Batchable). A batch manager, a manager driven
// one row at a time through Lookup and Store, and the model must agree on
// every binding's hit or miss and result, on the counters and entries, and
// on what the table holds — for a bounded table, in FIFO order. The seed
// corpus is testdata/fuzz/FuzzBatchMatchesSequential.
func FuzzBatchMatchesSequential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		max := int(data[0] % 9)
		data = data[1:]
		bat, seq := NewManager(true, max), NewManager(true, max)
		ref := &model{max: max, m: map[string]expr.Value{}}
		owner := bat.Owner(1, "f")
		var hits, misses int64
		for len(data) > 0 {
			w := min(int(data[0]%32), len(data)-1)
			data = data[1:]
			keys := make([][]byte, w)
			for i := range keys {
				keys[i] = alphabet[int(data[i])%len(alphabet)]
			}
			data = data[w:]
			out := make([]BatchEntry, w)
			step := w
			if !bat.Batchable() {
				step = 1
			}
			for i := 0; i < w; i += step {
				runBatch(t, bat, owner, keys[i:i+step], out[i:i+step])
			}
			for i, key := range keys {
				v, hit := seq.Lookup(owner, string(key))
				if !hit {
					v = result(owner, key)
					seq.Store(owner, string(key), v)
				}
				want, ok := ref.m[string(key)]
				if !ok {
					want = result(owner, key)
					misses++
				} else {
					hits++
				}
				ref.store(string(key), want)
				if hit != ok || v != want || ok != (out[i].State != BatchMiss) || out[i].Val != want {
					t.Fatalf("binding %d (%x): model hit=%v %v, sequential hit=%v %v, batch %+v", i, key, ok, want, hit, v, out[i])
				}
			}
			for _, m := range []*Manager{bat, seq} {
				h, ms, n := m.Stats()
				if h != hits || ms != misses || n != len(ref.m) {
					t.Fatalf("stats %d/%d/%d, model %d/%d/%d", h, ms, n, hits, misses, len(ref.m))
				}
				if got, want := contents(t, m, owner), ref.contents(); !slices.Equal(got, want) {
					t.Fatalf("table holds %v, model %v", got, want)
				}
			}
		}
	})
}

// TestGetBatchAllocFree: a GetBatch round allocates nothing, whether every
// binding hits or every one misses (half of them duplicates of the other
// half, found through the batch itself).
func TestGetBatchAllocFree(t *testing.T) {
	const width = 256
	keys, raw := benchKeys(1)
	hot, owner := benchManager(keys, 0)
	cold := NewManager(true, 0)
	other, _ := benchKeys(2) // a populated table none of raw's bindings is in
	for _, k := range other {
		cold.Store(owner, k, expr.B(true))
	}
	halves := append(raw[:width/2:width/2], raw[:width/2]...)
	out := make([]BatchEntry, width)
	for _, c := range []struct {
		name string
		m    *Manager
		keys [][]byte
		want uint8
	}{{"hits", hot, raw[:width], BatchHit}, {"misses", cold, halves, BatchMiss}} {
		allocs := testing.AllocsPerRun(100, func() { c.m.GetBatch(owner, c.keys, out) })
		if allocs != 0 {
			t.Errorf("%s: GetBatch of %d bindings allocates %.1f times", c.name, width, allocs)
		}
		if out[0].State != c.want || (c.want == BatchMiss && out[width-1].State != BatchDup) {
			t.Errorf("%s: entries %+v … %+v: not the case under test", c.name, out[0], out[width-1])
		}
	}
}
