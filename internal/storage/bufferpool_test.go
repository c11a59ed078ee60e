package storage

import (
	"fmt"
	"testing"
)

// TestFetchMissAllocFree: once a shard is full, a miss reuses the frame of
// the page it evicts, finds frames through a table that never grows and
// keeps its read in flight on the frame — so cycling through more pages than
// the pool holds (every fetch a miss, as storage.fetch_miss_ns measures)
// allocates nothing, with one shard or several, and the pool still serves
// each page's own bytes.
func TestFetchMissAllocFree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		d := NewDisk(nil)
		bp := NewShardedBufferPool(d, 8, shards)
		h := NewHeapFile(bp)
		for i := 0; h.NumPages() < 40; i++ {
			if _, err := h.Insert([]byte(fmt.Sprintf("page-filler-%06d-%s", i, "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"))); err != nil {
				t.Fatal(err)
			}
		}
		pages := h.NumPages()
		first := make([][]byte, pages)
		for p := range first {
			pg, err := bp.Fetch(h.FileID(), PageID(p))
			if err != nil {
				t.Fatal(err)
			}
			rec, ok := pg.Get(0)
			if !ok {
				t.Fatalf("page %d has no record", p)
			}
			first[p] = append([]byte(nil), rec...)
			bp.Unpin(h.FileID(), PageID(p), false)
		}
		bp.ResetCounters()
		var err error
		allocs := testing.AllocsPerRun(20, func() {
			for p := 0; p < pages && err == nil; p++ {
				var pg *Page
				if pg, err = bp.Fetch(h.FileID(), PageID(p)); err != nil {
					return
				}
				if rec, _ := pg.Get(0); string(rec) != string(first[p]) {
					err = fmt.Errorf("page %d serves %q, not its own record %q", p, rec, first[p])
				}
				bp.Unpin(h.FileID(), PageID(p), false)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if hits, misses := bp.HitRate(); hits != 0 || misses == 0 {
			t.Fatalf("shards=%d: %d hits, %d misses: not a miss loop", shards, hits, misses)
		}
		if allocs != 0 {
			t.Fatalf("shards=%d: a round of %d misses allocates %v times, want none", shards, pages, allocs)
		}
		if n := bp.PinnedFrames(); n != 0 {
			t.Fatalf("shards=%d: %d frames left pinned", shards, n)
		}
	}
}

// TestNewIOTrackerAllocs: a query's I/O tracker sets up a shard's frames on
// the first miss there, not when it is made — a point lookup touches one or
// two of the pool's shards — so making one allocates the tracker and its
// shard array, however many shards the pool has.
func TestNewIOTrackerAllocs(t *testing.T) {
	bp := NewShardedBufferPool(NewDisk(nil), 64, 16)
	if allocs := testing.AllocsPerRun(20, func() { trackerSink = NewIOTracker(bp) }); allocs > 2 {
		t.Fatalf("NewIOTracker over %d shards allocates %v times, want at most 2", bp.Shards(), allocs)
	}
}

var trackerSink *IOTracker
