package storage

import (
	"errors"
	"fmt"
	"testing"
)

// buildFaultHeap creates a multi-page heap file and flushes the pool so
// subsequent scans perform real disk reads the injector can intercept.
func buildFaultHeap(t *testing.T, poolPages int) (*Disk, *BufferPool, *HeapFile) {
	t.Helper()
	acct := &Accountant{}
	d := NewDisk(acct)
	bp := NewBufferPool(d, poolPages)
	h := NewHeapFile(bp)
	for i := 0; i < 500; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("%06d-padpadpadpadpadpadpadpad", i))); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 3 {
		t.Fatalf("need a multi-page heap, got %d pages", h.NumPages())
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	acct.Reset()
	return d, bp, h
}

// scanAll drains a full scan, returning the rows seen and the first error.
func scanAll(h *HeapFile) (int, error) {
	it := h.Scan()
	defer it.Close()
	n := 0
	for {
		_, _, ok, err := it.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

func TestFaultNthReadDeterministic(t *testing.T) {
	d, bp, h := buildFaultHeap(t, 8)
	for run := 0; run < 3; run++ {
		// Flush so every run starts cold and replays the same read sequence.
		if err := bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
		d.SetFaults(NewFaultInjector(FaultConfig{FailReadN: 2}))
		n, err := scanAll(h)
		if !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("run %d: want ErrInjectedFault, got rows=%d err=%v", run, n, err)
		}
		reads, _, injected := d.Faults().Counts()
		if reads != 2 || injected != 1 {
			t.Fatalf("run %d: counts reads=%d injected=%d, want 2 and 1", run, reads, injected)
		}
		d.SetFaults(nil)
	}
}

// TestFaultNotCharged asserts a failed I/O never reaches the accountant:
// the page did not transfer, so it must not count toward charged cost.
func TestFaultNotCharged(t *testing.T) {
	d, bp, h := buildFaultHeap(t, 8)
	d.SetFaults(NewFaultInjector(FaultConfig{FailReadN: 1}))
	if _, err := scanAll(h); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("want ErrInjectedFault, got %v", err)
	}
	d.SetFaults(nil)
	if got := d.Accountant().Stats().Total(); got != 0 {
		t.Fatalf("failed read was charged: accountant total = %d, want 0", got)
	}
	// Nor is a failed write-back: dirty one page and fail its write.
	if _, err := h.Insert([]byte("dirty")); err != nil {
		t.Fatal(err)
	}
	d.Accountant().Reset()
	d.SetFaults(NewFaultInjector(FaultConfig{FailWriteN: 1}))
	err := bp.FlushAll()
	d.SetFaults(nil)
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("want ErrInjectedFault from flush, got %v", err)
	}
	if got := d.Accountant().Stats().Total(); got != 0 {
		t.Fatalf("failed write was charged: accountant total = %d, want 0", got)
	}
}

// TestFaultSeedReproducible feeds two same-seed injectors an identical call
// sequence and requires identical probabilistic decisions.
func TestFaultSeedReproducible(t *testing.T) {
	decisions := func(seed int64) []bool {
		fi := NewFaultInjector(FaultConfig{Seed: seed, ReadProb: 0.3})
		out := make([]bool, 0, 64)
		for i := 0; i < 64; i++ {
			out = append(out, fi.beforeRead(1, PageID(i)) != nil)
		}
		return out
	}
	a, b := decisions(7), decisions(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	anyFault := false
	for _, x := range a {
		anyFault = anyFault || x
	}
	if !anyFault {
		t.Fatal("ReadProb=0.3 over 64 calls injected nothing")
	}
}

// TestFaultScanUnpinsOnError is the pin-leak regression for heap scans: a
// mid-scan read fault must leave zero pinned frames once the iterator is
// closed.
func TestFaultScanUnpinsOnError(t *testing.T) {
	d, bp, h := buildFaultHeap(t, 8)
	for _, failN := range []int64{1, 2, 3} {
		d.SetFaults(NewFaultInjector(FaultConfig{FailReadN: failN}))
		it := h.Scan()
		for {
			_, _, ok, err := it.Next()
			if err != nil || !ok {
				break
			}
		}
		it.Close()
		d.SetFaults(nil)
		if got := bp.PinnedFrames(); got != 0 {
			t.Fatalf("failN=%d: %d frames still pinned after Close", failN, got)
		}
	}
}

// TestFaultWriteNth covers the write-side trigger through FlushAll.
func TestFaultWriteNth(t *testing.T) {
	acct := &Accountant{}
	d := NewDisk(acct)
	bp := NewBufferPool(d, 8)
	h := NewHeapFile(bp)
	for i := 0; i < 500; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("%06d-padpadpadpadpadpadpadpad", i))); err != nil {
			t.Fatal(err)
		}
	}
	acct.Reset()
	d.SetFaults(NewFaultInjector(FaultConfig{FailWriteN: 1}))
	if err := bp.FlushAll(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("want ErrInjectedFault from flush, got %v", err)
	}
	d.SetFaults(nil)
	if w := acct.Stats().Writes; w != 0 {
		t.Fatalf("the failed flush charged %d writes, want 0", w)
	}
	// The frames the failed flush left dirty, the failed one among them, are
	// each written back once by the next flush — which must find the shard
	// unlocked.
	dirty := 0
	s := &bp.shards[0]
	for fr := s.lru.next; fr != &s.lru; fr = fr.next {
		if fr.dirty {
			dirty++
		}
	}
	if dirty == 0 {
		t.Fatal("the failed flush left no dirty frame")
	}
	var err error
	finishes(t, "FlushAll after a failed write-back", func() { err = bp.FlushAll() })
	if err != nil {
		t.Fatal(err)
	}
	if w := acct.Stats().Writes; w != int64(dirty) || s.n != 0 {
		t.Fatalf("the second flush charged %d writes for %d dirty frames and left %d resident; want one each and none", w, dirty, s.n)
	}
}
