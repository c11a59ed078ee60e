package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// insertPerRecord is the per-record load an Appender replaces: fetch the last
// page, put the record on it if it fits, unpin; otherwise unpin it and put
// the record on a new page.
func insertPerRecord(bp *BufferPool, h *HeapFile, rec []byte) (TID, error) {
	if n := h.NumPages(); n > 0 {
		last := PageID(n - 1)
		pg, err := bp.Fetch(h.FileID(), last)
		if err != nil {
			return TID{}, err
		}
		if pg.HasSpace(len(rec)) {
			slot, err := pg.Insert(rec)
			bp.Unpin(h.FileID(), last, err == nil)
			return TID{Page: last, Slot: slot}, err
		}
		bp.Unpin(h.FileID(), last, false)
	}
	pid, pg, err := bp.NewPage(h.FileID())
	if err != nil {
		return TID{}, err
	}
	slot, err := pg.Insert(rec)
	bp.Unpin(h.FileID(), pid, err == nil)
	return TID{Page: pid, Slot: slot}, err
}

// TestAppenderMatchesInserts loads the same records into two pools, one
// record at a time through the buffer pool and through Appenders (two files
// in turns, an appender closed when the other file's turn comes, or mid-file,
// and Insert between), and requires the same TIDs, the same pages byte for
// byte, and the same resident pages with the same pins and dirty bits, at
// pool sizes from one page up.
func TestAppenderMatchesInserts(t *testing.T) {
	for _, poolPages := range []int{1, 2, 5, 64} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("pool%d/shards%d", poolPages, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(poolPages*10 + shards)))
				recs := make([][]byte, 900)
				for i := range recs {
					recs[i] = bytes.Repeat([]byte{byte(i), byte(i >> 8)}, 1+rng.Intn(200))
				}
				refDisk, gotDisk := NewDisk(nil), NewDisk(nil)
				refPool := NewShardedBufferPool(refDisk, poolPages, shards)
				gotPool := NewShardedBufferPool(gotDisk, poolPages, shards)
				refFiles := []*HeapFile{NewHeapFile(refPool), NewHeapFile(refPool)}
				gotFiles := []*HeapFile{NewHeapFile(gotPool), NewHeapFile(gotPool)}
				apps := []*Appender{gotFiles[0].Append(), gotFiles[1].Append()}
				prev := 0
				for i, rec := range recs {
					f := i / 50 % 2 // runs of records into one file, then the other
					if f != prev {
						apps[prev].Close()
						prev = f
					}
					want, err := insertPerRecord(refPool, refFiles[f], rec)
					if err != nil {
						t.Fatal(err)
					}
					var got TID
					switch {
					case i%97 == 0:
						apps[f].Close() // the next Add pins the tail page anew
						got, err = apps[f].Add(rec)
					case i%89 == 0:
						apps[f].Close()
						got, err = gotFiles[f].Insert(rec)
					default:
						got, err = apps[f].Add(rec)
					}
					if err != nil {
						t.Fatalf("record %d: %v", i, err)
					}
					if got != want {
						t.Fatalf("record %d: TID %v, per-record load %v", i, got, want)
					}
				}
				for _, a := range apps {
					a.Close()
				}
				if got, want := gotPool.Resident(), refPool.Resident(); !slices.Equal(got, want) {
					t.Fatalf("resident pages\n%+v\nwant\n%+v", got, want)
				}
				if n := gotPool.PinnedFrames(); n != 0 {
					t.Fatalf("%d frames pinned after Close", n)
				}
				for f := range gotFiles {
					if err := gotPool.FlushAll(); err != nil {
						t.Fatal(err)
					}
					if err := refPool.FlushAll(); err != nil {
						t.Fatal(err)
					}
					n := refFiles[f].NumPages()
					if gotFiles[f].NumPages() != n {
						t.Fatalf("file %d: %d pages, want %d", f, gotFiles[f].NumPages(), n)
					}
					for p := 0; p < n; p++ {
						g, err := gotDisk.ReadPage(gotFiles[f].FileID(), PageID(p))
						if err != nil {
							t.Fatal(err)
						}
						w, err := refDisk.ReadPage(refFiles[f].FileID(), PageID(p))
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(g.Data(), w.Data()) {
							t.Fatalf("file %d page %d differs", f, p)
						}
					}
				}
			})
		}
	}
}

// TestAppenderErrors: a record too large for any page is refused before a
// page is pinned, and an empty one after, leaving nothing pinned once the
// appender closes.
func TestAppenderErrors(t *testing.T) {
	_, bp := newTestPool(2)
	h := NewHeapFile(bp)
	a := h.Append()
	if _, err := a.Add(make([]byte, PageSize)); err == nil {
		t.Fatal("a record larger than a page was appended")
	}
	if _, err := a.Add([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Add(nil); err == nil {
		t.Fatal("an empty record was appended")
	}
	a.Close()
	if n := bp.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames pinned after Close", n)
	}
}
