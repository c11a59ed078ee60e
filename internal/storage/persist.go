package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// diskMagic identifies the on-disk snapshot format.
const diskMagic = 0x70706431 // "ppd1"

// Serialize writes the disk's files: magic, file count, then per file its
// id, page count, and raw page images. The snapshot is self-contained; the
// caller persists catalog metadata separately.
func (d *Disk) Serialize(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], diskMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(d.files)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(d.next))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for id, pages := range d.files {
		var fh [8]byte
		binary.LittleEndian.PutUint32(fh[0:4], uint32(id))
		binary.LittleEndian.PutUint32(fh[4:8], uint32(len(pages)))
		if _, err := bw.Write(fh[:]); err != nil {
			return err
		}
		for _, pg := range pages {
			if _, err := bw.Write(pg.Data()); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadDisk deserializes a disk snapshot produced by Serialize, charging I/O to
// acct (nil allocates a fresh accountant).
func ReadDisk(r io.Reader, acct *Accountant) (*Disk, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("storage: truncated snapshot header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != diskMagic {
		return nil, fmt.Errorf("storage: not a disk snapshot")
	}
	nFiles := binary.LittleEndian.Uint32(hdr[4:8])
	next := binary.LittleEndian.Uint32(hdr[8:12])
	d := NewDisk(acct)
	d.next = FileID(next)
	for f := uint32(0); f < nFiles; f++ {
		var fh [8]byte
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			return nil, fmt.Errorf("storage: truncated file header: %w", err)
		}
		id := FileID(binary.LittleEndian.Uint32(fh[0:4]))
		nPages := binary.LittleEndian.Uint32(fh[4:8])
		// The slice grows with the pages actually read: the count comes from
		// the file, and a forged one must not size an allocation.
		var pages []*Page
		for p := uint32(0); p < nPages; p++ {
			pg := NewPage()
			if _, err := io.ReadFull(br, pg.Data()); err != nil {
				return nil, fmt.Errorf("storage: truncated page: %w", err)
			}
			pages = append(pages, pg)
		}
		d.files[id] = pages
	}
	return d, nil
}

// OpenHeapFile attaches a heap file handle to an existing disk file
// (snapshot restore).
func OpenHeapFile(bp *BufferPool, id FileID) (*HeapFile, error) {
	bp.disk.mu.Lock()
	_, ok := bp.disk.files[id]
	bp.disk.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: no such file %d in snapshot", id)
	}
	return &HeapFile{bp: bp, file: id}, nil
}
