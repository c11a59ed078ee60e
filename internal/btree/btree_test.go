package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"predplace/internal/storage"
)

func tid(i int) storage.TID {
	return storage.TID{Page: storage.PageID(i / 100), Slot: storage.SlotID(i % 100)}
}

func TestInsertProbeSmall(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 100; i++ {
		tr.Insert(int64(i), tid(i))
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 100; i++ {
		got := tr.Probe(int64(i))
		if len(got) != 1 || got[0] != tid(i) {
			t.Fatalf("Probe(%d) = %v", i, got)
		}
	}
	if got := tr.Probe(1000); len(got) != 0 {
		t.Fatalf("Probe(missing) = %v", got)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertManySplits(t *testing.T) {
	tr := New(nil)
	const n = 50000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, k := range perm {
		tr.Insert(int64(k), tid(k))
	}
	if tr.Height() < 2 {
		t.Fatalf("expected splits, height = %d", tr.Height())
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 997 {
		got := tr.Probe(int64(i))
		if len(got) != 1 || got[0] != tid(i) {
			t.Fatalf("Probe(%d) = %v", i, got)
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 1000; i++ {
		tr.Insert(int64(i%10), tid(i))
	}
	for k := int64(0); k < 10; k++ {
		got := tr.Probe(k)
		if len(got) != 100 {
			t.Fatalf("Probe(%d) returned %d tids, want 100", k, len(got))
		}
		seen := map[storage.TID]bool{}
		for _, g := range got {
			seen[g] = true
		}
		if len(seen) != 100 {
			t.Fatalf("Probe(%d) returned duplicated tids", k)
		}
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRunSpanningLeaves(t *testing.T) {
	tr := New(nil)
	// A run of one key longer than a node forces the run to span leaves.
	for i := 0; i < 3*order; i++ {
		tr.Insert(42, tid(i))
	}
	tr.Insert(41, tid(90000))
	tr.Insert(43, tid(90001))
	got := tr.Probe(42)
	if len(got) != 3*order {
		t.Fatalf("Probe(42) = %d tids, want %d", len(got), 3*order)
	}
	if len(tr.Probe(41)) != 1 || len(tr.Probe(43)) != 1 {
		t.Fatal("neighbors lost")
	}
}

func TestRangeScan(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 10000; i++ {
		tr.Insert(int64(i), tid(i))
	}
	it := tr.Range(100, 199)
	var keys []int64
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		keys = append(keys, e.Key)
	}
	if len(keys) != 100 || keys[0] != 100 || keys[99] != 199 {
		t.Fatalf("range scan wrong: %d keys, first %v last %v", len(keys), keys[0], keys[len(keys)-1])
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("range scan out of order")
	}
}

func TestRangeEmptyAndEdges(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 100; i++ {
		tr.Insert(int64(i*2), tid(i)) // even keys only
	}
	it := tr.Range(1001, 2000)
	if _, ok := it.Next(); ok {
		t.Fatal("range past end should be empty")
	}
	it = tr.Range(3, 3)
	if _, ok := it.Next(); ok {
		t.Fatal("range on absent key should be empty")
	}
	it = tr.Range(0, 0)
	if e, ok := it.Next(); !ok || e.Key != 0 {
		t.Fatal("single-key range failed")
	}
	if _, ok := it.Next(); ok {
		t.Fatal("single-key range should yield once")
	}
}

func TestScanAll(t *testing.T) {
	tr := New(nil)
	const n = 5000
	for _, k := range rand.New(rand.NewSource(3)).Perm(n) {
		tr.Insert(int64(k), tid(k))
	}
	it := tr.ScanAll()
	prev := int64(-1)
	count := 0
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if e.Key < prev {
			t.Fatal("ScanAll out of order")
		}
		prev = e.Key
		count++
	}
	if count != n {
		t.Fatalf("ScanAll visited %d, want %d", count, n)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if got := tr.Probe(1); len(got) != 0 {
		t.Fatal("probe on empty tree")
	}
	if _, ok := tr.ScanAll().Next(); ok {
		t.Fatal("scan on empty tree")
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatal("empty tree shape")
	}
}

func TestNegativeKeys(t *testing.T) {
	tr := New(nil)
	for i := -500; i < 500; i++ {
		tr.Insert(int64(i), tid(i+500))
	}
	if got := tr.Probe(-500); len(got) != 1 {
		t.Fatalf("Probe(-500) = %v", got)
	}
	it := tr.Range(-10, 10)
	count := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		count++
	}
	if count != 21 {
		t.Fatalf("range(-10,10) = %d entries, want 21", count)
	}
}

func TestProbeChargesIO(t *testing.T) {
	acct := &storage.Accountant{}
	tr := New(acct)
	for i := 0; i < 1000; i++ {
		tr.Insert(int64(i), tid(i))
	}
	acct.Reset()
	tr.Probe(500)
	if got := acct.Stats().RandReads; got != 1 {
		t.Fatalf("a probe of one unique key charged %d random reads, want its one leaf", got)
	}
}

// TestAgainstReferenceQuick compares the tree to a map-based reference under
// random workloads (property-based equivalence).
func TestAgainstReferenceQuick(t *testing.T) {
	f := func(keys []int16) bool {
		tr := New(nil)
		ref := map[int64][]storage.TID{}
		for i, k16 := range keys {
			k := int64(k16)
			tr.Insert(k, tid(i))
			ref[k] = append(ref[k], tid(i))
		}
		if err := tr.check(); err != nil {
			return false
		}
		for k, want := range ref {
			got := tr.Probe(k)
			if len(got) != len(want) {
				return false
			}
			seen := map[storage.TID]int{}
			for _, g := range got {
				seen[g]++
			}
			for _, w := range want {
				if seen[w] != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeAgainstReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := New(nil)
	var all []int64
	for i := 0; i < 20000; i++ {
		k := int64(rng.Intn(5000))
		tr.Insert(k, tid(i))
		all = append(all, k)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for trial := 0; trial < 50; trial++ {
		lo := int64(rng.Intn(5000))
		hi := lo + int64(rng.Intn(1000))
		want := 0
		for _, k := range all {
			if k >= lo && k <= hi {
				want++
			}
		}
		got := 0
		it := tr.Range(lo, hi)
		for {
			e, ok := it.Next()
			if !ok {
				break
			}
			if e.Key < lo || e.Key > hi {
				t.Fatalf("range [%d,%d] yielded key %d", lo, hi, e.Key)
			}
			got++
		}
		if got != want {
			t.Fatalf("range [%d,%d]: got %d entries, want %d", lo, hi, got, want)
		}
	}
}

func TestDelete(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 1000; i++ {
		tr.Insert(int64(i%100), tid(i))
	}
	// Delete one specific duplicate.
	if !tr.Delete(42, tid(42)) {
		t.Fatal("delete of present entry failed")
	}
	if tr.Delete(42, tid(42)) {
		t.Fatal("double delete should fail")
	}
	if tr.Len() != 999 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.Probe(42)
	if len(got) != 9 {
		t.Fatalf("Probe(42) = %d entries, want 9", len(got))
	}
	for _, g := range got {
		if g == tid(42) {
			t.Fatal("deleted tid still present")
		}
	}
	if tr.Delete(424242, tid(1)) {
		t.Fatal("delete of absent key should fail")
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllThenReinsert(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 500; i++ {
		tr.Insert(int64(i), tid(i))
	}
	for i := 0; i < 500; i++ {
		if !tr.Delete(int64(i), tid(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	for i := 0; i < 500; i++ {
		tr.Insert(int64(i), tid(i))
	}
	if len(tr.Probe(250)) != 1 {
		t.Fatal("reinsert after full delete broken")
	}
}
