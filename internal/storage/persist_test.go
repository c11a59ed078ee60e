package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestSerializeRoundTrip(t *testing.T) {
	d, bp := newTestPool(16)
	h := NewHeapFile(bp)
	var tids []TID
	for i := 0; i < 500; i++ {
		tid, err := h.Insert([]byte(fmt.Sprintf("row-%04d-%s", i, strings.Repeat("p", 40))))
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	// Delete a few rows: dead slots must survive the round trip as dead.
	for i := 0; i < 500; i += 50 {
		if err := h.Delete(tids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := d.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDisk(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	bp2 := NewBufferPool(d2, 16)
	h2, err := OpenHeapFile(bp2, h.FileID())
	if err != nil {
		t.Fatal(err)
	}
	it := h2.Scan()
	defer it.Close()
	live := 0
	for {
		rec, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !strings.HasPrefix(string(rec), "row-") {
			t.Fatalf("corrupted record %q", rec)
		}
		live++
	}
	if live != 490 {
		t.Fatalf("restored %d live rows, want 490", live)
	}
	// Allocation continues with fresh file ids after restore.
	f := d2.CreateFile()
	if f == h.FileID() {
		t.Fatal("file id counter not restored")
	}
}

func TestReadDiskErrors(t *testing.T) {
	if _, err := ReadDisk(bytes.NewReader([]byte("short")), nil); err == nil {
		t.Fatal("truncated header should fail")
	}
	bad := make([]byte, 12)
	if _, err := ReadDisk(bytes.NewReader(bad), nil); err == nil {
		t.Fatal("bad magic should fail")
	}
	// Valid header claiming a file but truncated payload.
	d, bp := newTestPool(4)
	h := NewHeapFile(bp)
	h.Insert(make([]byte, 50))
	bp.FlushAll()
	var buf bytes.Buffer
	if err := d.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-100]
	if _, err := ReadDisk(bytes.NewReader(trunc), nil); err == nil {
		t.Fatal("truncated payload should fail")
	}
	// A 20-byte image whose one file declares 2^28 pages: the count comes
	// from the file, so it must not size an allocation.
	var forged bytes.Buffer
	empty := NewDisk(nil)
	empty.CreateFile()
	if err := empty.Serialize(&forged); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(forged.Bytes()[forged.Len()-4:], 1<<28)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadDisk(bytes.NewReader(forged.Bytes()), nil)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 1<<20 {
		t.Fatalf("forged page count: err %v after allocating %d bytes, want an error and < 1 MiB", err, n)
	}
	// OpenHeapFile on a missing file id.
	if _, err := OpenHeapFile(bp, 999); err == nil {
		t.Fatal("missing file id should fail")
	}
	if bp.Capacity() != 4 {
		t.Fatal("Capacity accessor")
	}
}
