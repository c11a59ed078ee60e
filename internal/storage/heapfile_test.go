package storage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func newTestPool(capacity int) (*Disk, *BufferPool) {
	d := NewDisk(nil)
	return d, NewBufferPool(d, capacity)
}

// finishes runs fn and stops the test binary, naming the test, if fn has not
// returned within five seconds. A pool call that returns with its shard still
// locked blocks the next call on that shard for good, in this test and in
// every later one that takes the same path; a panic reports it at once
// instead of at go test's own timeout.
func finishes(t *testing.T, what string, fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		panic(fmt.Sprintf("%s: %s did not return within 5s: a shard lock is still held", t.Name(), what))
	}
}

func TestHeapFileInsertGet(t *testing.T) {
	_, bp := newTestPool(8)
	h := NewHeapFile(bp)
	var tids []TID
	for i := 0; i < 1000; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
		tid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if h.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.NumPages())
	}
	for i, tid := range tids {
		want := []byte(fmt.Sprintf("record-%04d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
		got, err := h.Get(tid)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%v) = %q, %v", tid, got, err)
		}
	}
}

func TestHeapFileScanOrderAndCompleteness(t *testing.T) {
	_, bp := newTestPool(4)
	h := NewHeapFile(bp)
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("%06d-padpadpadpadpadpadpadpad", i))); err != nil {
			t.Fatal(err)
		}
	}
	it := h.Scan()
	defer it.Close()
	i := 0
	for {
		rec, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		want := fmt.Sprintf("%06d-padpadpadpadpadpadpadpad", i)
		if string(rec) != want {
			t.Fatalf("scan[%d] = %q, want %q", i, rec, want)
		}
		i++
	}
	if i != n {
		t.Fatalf("scanned %d records, want %d", i, n)
	}
	// Next after exhaustion stays exhausted.
	if _, _, ok, _ := it.Next(); ok {
		t.Fatal("iterator should stay exhausted")
	}
}

func TestHeapFileScanIsMostlySequential(t *testing.T) {
	d, bp := newTestPool(2) // tiny pool: cold scan
	h := NewHeapFile(bp)
	rec := make([]byte, 100)
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	d.Accountant().Reset()
	bp.FlushAll()
	d.Accountant().Reset()
	it := h.Scan()
	for {
		_, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	it.Close()
	s := d.Accountant().Stats()
	if s.SeqReads < s.RandReads {
		t.Fatalf("cold heap scan should be mostly sequential: %+v", s)
	}
	if s.SeqReads+s.RandReads != int64(h.NumPages()) {
		t.Fatalf("scan should read each page once: %+v vs %d pages", s, h.NumPages())
	}
}

func TestHeapFileRecordTooLarge(t *testing.T) {
	_, bp := newTestPool(4)
	h := NewHeapFile(bp)
	if _, err := h.Insert(make([]byte, PageSize)); err == nil {
		t.Fatal("oversized record should be rejected")
	}
}

func TestHeapFileGetBadTID(t *testing.T) {
	_, bp := newTestPool(4)
	h := NewHeapFile(bp)
	h.Insert([]byte("x"))
	if _, err := h.Get(TID{Page: 99, Slot: 0}); err == nil {
		t.Fatal("bad page should error")
	}
	if _, err := h.Get(TID{Page: 0, Slot: 99}); err == nil {
		t.Fatal("bad slot should error")
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	d, bp := newTestPool(4)
	h := NewHeapFile(bp)
	tid, _ := h.Insert([]byte("hello"))
	bp.ResetCounters()
	for i := 0; i < 5; i++ {
		if _, err := h.Get(tid); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := bp.HitRate()
	if hits != 5 || misses != 0 {
		t.Fatalf("hits=%d misses=%d (page should be resident)", hits, misses)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	bp.ResetCounters()
	d.Accountant().Reset()
	if _, err := h.Get(tid); err != nil {
		t.Fatal(err)
	}
	hits, misses = bp.HitRate()
	if misses != 1 {
		t.Fatalf("after flush expected 1 miss, got hits=%d misses=%d", hits, misses)
	}
	if d.Accountant().Stats().Total() != 1 {
		t.Fatalf("miss should cost exactly one physical read: %+v", d.Accountant().Stats())
	}
}

func TestBufferPoolEviction(t *testing.T) {
	d, bp := newTestPool(3)
	// The inserts go through a tracked view: the tracker simulates the same
	// cold pool, so it must charge exactly the write-backs the pool does.
	tr := NewIOTracker(bp)
	h := NewHeapFile(bp).WithTracker(tr)
	rec := make([]byte, 1000)
	for i := 0; i < 100; i++ {
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	n := h.NumPages()
	if n <= 3 {
		t.Fatalf("need more pages than pool capacity, got %d", n)
	}
	// Dirty pages must have been written back during eviction.
	if d.Accountant().Stats().Writes == 0 {
		t.Fatal("expected writebacks of dirty evicted pages")
	}
	if err := bp.EvictUnpinned(); err != nil {
		t.Fatal(err)
	}
	tr.EvictUnpinned()
	if got, want := tr.Stats(), d.Accountant().Stats(); got != want {
		t.Fatalf("the tracker charged %+v, the pool %+v", got, want)
	}
	// All data still intact.
	it := h.Scan()
	count := 0
	for {
		_, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	it.Close()
	if count != 100 {
		t.Fatalf("scan found %d records, want 100", count)
	}
	if got, want := tr.Stats(), d.Accountant().Stats(); got != want {
		t.Fatalf("after a cold scan the tracker charged %+v, the pool %+v", got, want)
	}
}

func TestBufferPoolAllPinnedError(t *testing.T) {
	d, bp := newTestPool(1)
	f := d.CreateFile()
	pid1, _, err := bp.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	// Pool of 1, page pinned: allocating another page, or fetching one that
	// is not resident (the failed NewPage allocated it on disk), must fail
	// and leave the shard unlocked for the calls after the unpin.
	var errNew, errFetch, errRefetch, errRealloc error
	finishes(t, "NewPage, Fetch, Unpin, Fetch and NewPage on a full pool", func() {
		_, _, errNew = bp.NewPage(f)
		_, errFetch = bp.Fetch(f, pid1+1)
		bp.Unpin(f, pid1, false)
		if _, errRefetch = bp.Fetch(f, pid1+1); errRefetch == nil {
			bp.Unpin(f, pid1+1, false)
		}
		_, _, errRealloc = bp.NewPage(f)
	})
	for what, err := range map[string]error{"NewPage": errNew, "Fetch of a page not resident": errFetch} {
		if err == nil || !strings.Contains(err.Error(), "exhausted") {
			t.Errorf("%s with every frame pinned: %v, want the pool-exhausted error", what, err)
		}
	}
	if errRefetch != nil || errRealloc != nil {
		t.Fatalf("after unpin: Fetch %v, NewPage %v; both should succeed", errRefetch, errRealloc)
	}
}

func TestDiskErrors(t *testing.T) {
	d := NewDisk(nil)
	if _, err := d.ReadPage(42, 0); err == nil {
		t.Fatal("read of missing file should error")
	}
	if _, err := d.AllocPage(42); err == nil {
		t.Fatal("alloc in missing file should error")
	}
	f := d.CreateFile()
	if err := d.WritePage(f, 0); err == nil {
		t.Fatal("write beyond EOF should error")
	}
	if d.NumPages(f) != 0 {
		t.Fatal("fresh file should be empty")
	}
}

func TestHeapIterCloseMidway(t *testing.T) {
	_, bp := newTestPool(4)
	h := NewHeapFile(bp)
	for i := 0; i < 300; i++ {
		h.Insert(make([]byte, 100))
	}
	it := h.Scan()
	it.Next()
	it.Close()
	if _, _, ok, _ := it.Next(); ok {
		t.Fatal("closed iterator should be exhausted")
	}
	// Page must be unpinned: FlushAll should succeed and a 1-capacity pool fetch works.
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// TestHeapIterNextPage: walking each page's slots through NextPage and
// Extent — over a copy of the page's bytes, as a scan that outlives the pin
// does — visits the records NextRef visits, dead slots skipped, with the
// same page reads in the same order and one page pinned at a time; and the
// two interleave: NextRef after NextPage walks that page from its first
// slot, NextPage after NextRef leaves the rest of the page unread.
func TestHeapIterNextPage(t *testing.T) {
	d, bp := newTestPool(2)
	h := NewHeapFile(bp)
	var tids []TID
	for i := 0; i < 400; i++ {
		tid, err := h.Insert([]byte(fmt.Sprintf("%06d-padpadpadpadpadpadpadpadpadpadpadpadpadpadpadpad", i)))
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	for i := 0; i < len(tids); i += 7 {
		if err := h.Delete(tids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.EvictUnpinned(); err != nil {
		t.Fatal(err)
	}
	reads := func(walk func(emit func(rec []byte, tid TID))) (recs []string, ios IOStats) {
		before := d.Accountant().Stats()
		walk(func(rec []byte, tid TID) { recs = append(recs, fmt.Sprint(tid, string(rec))) })
		after := d.Accountant().Stats()
		if err := bp.EvictUnpinned(); err != nil { // also: nothing is left pinned
			t.Fatal(err)
		}
		return recs, IOStats{SeqReads: after.SeqReads - before.SeqReads, RandReads: after.RandReads - before.RandReads}
	}
	byRef, refIO := reads(func(emit func([]byte, TID)) {
		it := h.Scan()
		defer it.Close()
		for {
			rec, tid, ok, err := it.NextRef()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			emit(rec, tid)
		}
	})
	byPage, pageIO := reads(func(emit func([]byte, TID)) {
		it := h.Scan()
		defer it.Close()
		var kept []byte
		for {
			pg, id, ok, err := it.NextPage()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
			kept = append(kept[:0], pg.Data()...)
			for s := 0; s < pg.NumSlots(); s++ {
				if off, n, live := pg.Extent(SlotID(s)); live {
					emit(kept[off:off+n], TID{Page: id, Slot: SlotID(s)})
				}
			}
		}
	})
	if len(byRef) != len(tids)-(len(tids)+6)/7 || fmt.Sprint(byPage) != fmt.Sprint(byRef) {
		t.Fatalf("NextPage walk saw %d records, NextRef %d of %d live", len(byPage), len(byRef), len(tids)-(len(tids)+6)/7)
	}
	if pageIO != refIO || refIO.SeqReads+refIO.RandReads != int64(h.NumPages()) {
		t.Fatalf("NextPage walk read %+v, NextRef %+v, the file has %d pages", pageIO, refIO, h.NumPages())
	}
	it := h.Scan()
	defer it.Close()
	if _, _, ok, err := it.NextRef(); !ok || err != nil { // page 0, slot 0 is dead: this is slot 1
		t.Fatal(ok, err)
	}
	if _, id, ok, err := it.NextPage(); !ok || err != nil || id != 1 {
		t.Fatalf("NextPage after NextRef on page 0: page %d, %v, %v", id, ok, err)
	}
	if _, tid, ok, err := it.NextRef(); !ok || err != nil || tid.Page != 1 || tid.Slot > 1 {
		t.Fatalf("NextRef after NextPage: %v, %v, %v; want the first live record of page 1", tid, ok, err)
	}
}

// TestDeadSlotReleasesPin: reading or deleting a record that is not there —
// a slot already deleted, or one past the page's last — fails and still
// unpins the page it fetched, on every entry point.
func TestDeadSlotReleasesPin(t *testing.T) {
	_, bp := newTestPool(4)
	h := NewHeapFile(bp)
	tid, err := h.Insert([]byte("record"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(tid); err != nil {
		t.Fatal(err)
	}
	past := TID{Page: tid.Page, Slot: tid.Slot + 1}
	for _, dead := range []TID{tid, past} {
		if err := h.Delete(dead); err == nil {
			t.Fatalf("Delete(%s) of a dead slot succeeded", dead)
		}
		if err := h.View(dead, func([]byte) error { return nil }); err == nil {
			t.Fatalf("View(%s) of a dead slot succeeded", dead)
		}
		if _, err := h.Get(dead); err == nil {
			t.Fatalf("Get(%s) of a dead slot succeeded", dead)
		}
		if n := bp.PinnedFrames(); n != 0 {
			t.Fatalf("%d frames pinned after failed calls on dead slot %s", n, dead)
		}
	}
}
