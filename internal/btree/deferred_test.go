package btree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"predplace/internal/storage"
)

// sameNodes reports the first place where two trees' nodes differ: kind,
// separator keys, leaf entries in order, or depth. Leaves are compared by
// content, so an equal tree reached by a different sequence of splits still
// differs in where its separators sit or how full its leaves are.
func sameNodes(a, b *Tree) error {
	if a.Len() != b.Len() || a.Height() != b.Height() {
		return fmt.Errorf("Len/Height %d/%d, want %d/%d", a.Len(), a.Height(), b.Len(), b.Height())
	}
	var walk func(x, y *node, path string) error
	walk = func(x, y *node, path string) error {
		if x.leaf != y.leaf {
			return fmt.Errorf("node %s: leaf %v, want %v", path, x.leaf, y.leaf)
		}
		if x.leaf {
			if !slices.Equal(x.entries, y.entries) {
				return fmt.Errorf("leaf %s: %d entries %v…, want %d %v…", path,
					len(x.entries), head(x.entries), len(y.entries), head(y.entries))
			}
			return nil
		}
		if !slices.Equal(x.keys, y.keys) || len(x.children) != len(y.children) {
			return fmt.Errorf("node %s: separators %v, want %v", path, x.keys, y.keys)
		}
		for i := range x.children {
			if err := walk(x.children[i], y.children[i], fmt.Sprintf("%s/%d", path, i)); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(a.root, b.root, "root")
}

func head(es []Entry) []Entry { return es[:min(len(es), 4)] }

// eager inserts pairs one at a time into a New tree: what a Deferred tree
// over the same pairs must equal once built.
func eager(acct *storage.Accountant, pairs []Entry) *Tree {
	tr := New(acct)
	for _, e := range pairs {
		tr.Insert(e.Key, e.TID)
	}
	return tr
}

func TestDeferredMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{0, 1, 256, 257, 5000, 40000} {
		pairs := make([]Entry, n)
		for i := range pairs {
			pairs[i] = Entry{Key: int64(rng.Intn(n/3 + 1)), TID: tid(i)}
		}
		want := eager(nil, pairs)
		b0 := Builds()
		got := Deferred(nil, slices.Clone(pairs))
		if Builds() != b0 {
			t.Fatalf("n=%d: Deferred built its tree before any read", n)
		}
		if err := sameNodes(got, want); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if Builds() != b0+1 {
			t.Fatalf("n=%d: %d builds, want 1", n, Builds()-b0)
		}
		if err := got.check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeferredFirstUseBuilds holds every entry point to building first: an
// Insert or a Delete into a tree whose pairs are still pending lands after
// them, and a WithAcct view sees the built tree.
func TestDeferredFirstUseBuilds(t *testing.T) {
	pairs := make([]Entry, 3000)
	for i := range pairs {
		pairs[i] = Entry{Key: int64(i % 700), TID: tid(i)}
	}
	first := map[string]func(tr *Tree){
		"Probe":   func(tr *Tree) { tr.Probe(5) },
		"Range":   func(tr *Tree) { tr.Range(1, 9) },
		"ScanAll": func(tr *Tree) { tr.ScanAll() },
		"Len":     func(tr *Tree) { tr.Len() },
		"Height":  func(tr *Tree) { tr.Height() },
		"Insert":  func(tr *Tree) { tr.Insert(5, tid(9000)) },
		"Delete":  func(tr *Tree) { tr.Delete(5, tid(5)) },
		"WithAcct": func(tr *Tree) {
			var acct storage.Accountant
			v := tr.WithAcct(&acct)
			if got := len(v.Probe(6)); got != 5 || acct.Stats().RandReads != 1 || v.Height() != 2 {
				t.Fatalf("a view made first: %d TIDs for 5 in %d leaf reads, height %d of 2",
					got, acct.Stats().RandReads, v.Height())
			}
		},
	}
	for name, use := range first {
		want := eager(nil, pairs)
		use(want)
		got := Deferred(nil, slices.Clone(pairs))
		b0 := Builds()
		use(got)
		if Builds() != b0+1 {
			t.Fatalf("%s first: %d builds, want 1", name, Builds()-b0)
		}
		if err := sameNodes(got, want); err != nil {
			t.Fatalf("%s first: %v", name, err)
		}
	}
}

// TestDeferredConcurrentFirstProbe starts several goroutines on one unbuilt
// tree at once — Probe, Range, and probes through WithAcct views — and
// requires one build and every goroutine's answer equal to an eager tree's.
// Run under -race it also holds the build to happen-before every read.
func TestDeferredConcurrentFirstProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pairs := make([]Entry, 20000)
	for i := range pairs {
		pairs[i] = Entry{Key: int64(rng.Intn(4000)), TID: tid(i)}
	}
	want := eager(nil, pairs)
	for round := 0; round < 4; round++ {
		tr := Deferred(nil, slices.Clone(pairs))
		b0 := Builds()
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan error, 9)
		for g := 0; g < 9; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				key := int64(g * 431 % 4000)
				var got, exp []storage.TID
				switch g % 3 {
				case 0:
					got, exp = tr.Probe(key), want.Probe(key)
				case 1:
					got, exp = rangeTIDs(tr.Range(key, key+40)), rangeTIDs(want.Range(key, key+40))
				default:
					var acct, ref storage.Accountant
					got, exp = tr.WithAcct(&acct).Probe(key), want.WithAcct(&ref).Probe(key)
					if acct.Stats() != ref.Stats() {
						errs <- fmt.Errorf("goroutine %d: a view's probe charged %+v, eager %+v", g, acct.Stats(), ref.Stats())
						return
					}
				}
				if len(exp) == 0 || !slices.Equal(got, exp) {
					errs <- fmt.Errorf("goroutine %d key %d: %d TIDs, want %d", g, key, len(got), len(exp))
				}
			}(g)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := Builds() - b0; got != 1 {
			t.Fatalf("round %d: %d builds, want 1", round, got)
		}
		if err := sameNodes(tr, want); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func rangeTIDs(it *Iter) []storage.TID {
	var out []storage.TID
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		out = append(out, e.TID)
	}
	return out
}

// fuzzOp is one step of FuzzDeferredTree's stream: insert (key, tid), or
// delete it when del is set.
type fuzzOp struct {
	del bool
	e   Entry
}

// fuzzStream turns fuzz bytes into a load prefix and a stream of operations.
// data[0] says which share of the stream is the load (every step of it an
// insert), data[1] how many times the rest of the bytes repeat (at most 6 000
// steps in all), and each further byte one step: its top two bits pick a
// small key (many duplicates), a special key (0, ±1, the int64 extremes), a
// spread key, or a delete of an earlier step's pair (an insert of a small key
// within the load).
func fuzzStream(data []byte) (load int, ops []fuzzOp) {
	if len(data) < 3 {
		return 0, nil
	}
	body := data[2:]
	n := min(len(body)*(1+int(data[1]%48)), 6000)
	load = n * int(data[0]) / 255
	special := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0}
	for i := 0; i < n; i++ {
		b := body[i%len(body)]
		v := int64(b & 63)
		e := Entry{TID: tid(i)}
		switch b >> 6 {
		case 0:
			e.Key = v - 32
		case 1:
			e.Key = special[v%8]
		case 2:
			e.Key = int64(uint64(v+1)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9)
		default:
			if i >= load && i > 0 {
				ops = append(ops, fuzzOp{del: true, e: ops[int(v)*(i/64+1)%i].e})
				continue
			}
			e.Key = v % 8
		}
		ops = append(ops, fuzzOp{e: e})
	}
	return load, ops
}

// FuzzDeferredTree holds a Deferred tree to the eager one: a load prefix
// handed over as pairs, then an Insert/Delete suffix, against the same
// stream inserted and deleted one step at a time into a New tree. Node for
// node, Probe and Range answers, Delete's verdicts and the leaf reads both
// trees charge their own accountants (so a build that charges shows) must
// agree. The seed corpus is testdata/fuzz/FuzzDeferredTree.
func FuzzDeferredTree(f *testing.F) {
	f.Add([]byte{128, 0, 1, 2, 3, 64, 65, 66, 67, 68, 69, 70, 71, 192, 193, 130})
	f.Add([]byte{255, 40, 0, 0, 0, 0, 32, 32, 32, 64, 68})
	f.Add([]byte{40, 47, 130, 140, 150, 160, 200, 210, 220, 5, 70, 71})
	f.Fuzz(func(t *testing.T, data []byte) {
		load, ops := fuzzStream(data)
		var acctD, acctE storage.Accountant
		pairs := make([]Entry, load)
		for i := range pairs {
			pairs[i] = ops[i].e
		}
		got, want := Deferred(&acctD, pairs), New(&acctE)
		for i, op := range ops {
			if i < load {
				want.Insert(op.e.Key, op.e.TID)
				continue
			}
			if op.del {
				if g, w := got.Delete(op.e.Key, op.e.TID), want.Delete(op.e.Key, op.e.TID); g != w {
					t.Fatalf("step %d: Delete(%d, %v) = %v, eager %v", i, op.e.Key, op.e.TID, g, w)
				}
				continue
			}
			got.Insert(op.e.Key, op.e.TID)
			want.Insert(op.e.Key, op.e.TID)
		}
		if err := sameNodes(got, want); err != nil {
			t.Fatal(err)
		}
		keys := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
		for i := 0; i < len(ops); i += len(ops)/64 + 1 {
			keys = append(keys, ops[i].e.Key)
		}
		for i, k := range keys {
			if g, w := got.Probe(k), want.Probe(k); !slices.Equal(g, w) {
				t.Fatalf("Probe(%d) = %v, eager %v", k, g, w)
			}
			hi := keys[(i*7+3)%len(keys)]
			if g, w := rangeTIDs(got.Range(k, hi)), rangeTIDs(want.Range(k, hi)); !slices.Equal(g, w) {
				t.Fatalf("Range(%d, %d): %d TIDs, eager %d", k, hi, len(g), len(w))
			}
		}
		if g, w := rangeTIDs(got.ScanAll()), rangeTIDs(want.ScanAll()); !slices.Equal(g, w) {
			t.Fatalf("ScanAll: %d TIDs, eager %d", len(g), len(w))
		}
		if g, w := acctD.Stats(), acctE.Stats(); g != w {
			t.Fatalf("charged %+v, eager %+v", g, w)
		}
	})
}
