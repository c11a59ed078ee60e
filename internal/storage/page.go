package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of every disk page in bytes.
const PageSize = 8192

// FileID identifies a file on the simulated disk.
type FileID uint32

// PageID is a zero-based page number within a file.
type PageID uint32

// SlotID indexes a record slot within a page.
type SlotID uint16

// TID is a tuple identifier: the physical address of a record.
type TID struct {
	Page PageID
	Slot SlotID
}

// String renders the TID for debugging.
func (t TID) String() string { return fmt.Sprintf("(%d,%d)", t.Page, t.Slot) }

// Page is an 8 KiB slotted page.
//
// Layout:
//
//	[0:2)   numSlots  uint16
//	[2:4)   freeStart uint16 — offset of the first free byte after the slot array region's data
//	[4:8)   reserved
//	slot directory grows from offset 8 upward: per slot {off uint16, len uint16}
//	record heap grows from PageSize downward
//
// A slot with len == 0 is a dead (deleted) record.
type Page struct {
	data [PageSize]byte
}

const (
	pageHeaderSize = 8
	slotSize       = 4
)

// NewPage returns an initialized empty page.
func NewPage() *Page {
	p := &Page{}
	p.setFreeStart(PageSize)
	return p
}

// Data exposes the raw page bytes (for checksumming and serialization tests).
func (p *Page) Data() []byte { return p.data[:] }

func (p *Page) numSlots() uint16     { return binary.LittleEndian.Uint16(p.data[0:2]) }
func (p *Page) setNumSlots(n uint16) { binary.LittleEndian.PutUint16(p.data[0:2], n) }
func (p *Page) freeStart() uint16    { return binary.LittleEndian.Uint16(p.data[2:4]) }
func (p *Page) setFreeStart(n int)   { binary.LittleEndian.PutUint16(p.data[2:4], uint16(n)) }

func (p *Page) slot(i SlotID) (off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	return binary.LittleEndian.Uint16(p.data[base : base+2]),
		binary.LittleEndian.Uint16(p.data[base+2 : base+4])
}

func (p *Page) setSlot(i SlotID, off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	binary.LittleEndian.PutUint16(p.data[base:base+2], off)
	binary.LittleEndian.PutUint16(p.data[base+2:base+4], length)
}

// NumSlots returns the number of slots (including dead ones) on the page.
func (p *Page) NumSlots() int { return int(p.numSlots()) }

// FreeSpace returns the number of bytes available for a new record,
// accounting for the slot-directory entry the record would need.
func (p *Page) FreeSpace() int {
	used := pageHeaderSize + int(p.numSlots())*slotSize
	free := int(p.freeStart()) - used - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// HasSpace reports whether a record of n bytes fits on the page.
func (p *Page) HasSpace(n int) bool { return p.FreeSpace() >= n }

// Insert stores rec in a new slot and returns its slot id.
func (p *Page) Insert(rec []byte) (SlotID, error) {
	if len(rec) == 0 {
		return 0, fmt.Errorf("storage: empty record")
	}
	if !p.HasSpace(len(rec)) {
		return 0, fmt.Errorf("storage: page full (need %d, free %d)", len(rec), p.FreeSpace())
	}
	n := p.numSlots()
	off := int(p.freeStart()) - len(rec)
	copy(p.data[off:], rec)
	p.setSlot(SlotID(n), uint16(off), uint16(len(rec)))
	p.setNumSlots(n + 1)
	p.setFreeStart(off)
	return SlotID(n), nil
}

// Get returns the record stored in slot i, or (nil, false) if the slot is
// out of range or dead. The returned slice aliases page memory and must not
// be retained across page eviction; callers copy when needed.
func (p *Page) Get(i SlotID) ([]byte, bool) {
	off, length, ok := p.Extent(i)
	if !ok {
		return nil, false
	}
	return p.data[off : off+length], true
}

// Extent returns where in Data the record of slot i lies, or ok=false if
// the slot is out of range or dead: what a reader of a copy of the page
// needs to find the record Get would return.
func (p *Page) Extent(i SlotID) (off, length int, ok bool) {
	if int(i) >= int(p.numSlots()) {
		return 0, 0, false
	}
	o, l := p.slot(i)
	return int(o), int(l), l != 0
}

// Delete marks slot i dead. Space is not reclaimed (no compaction); the
// benchmark workloads are insert-then-read-only.
func (p *Page) Delete(i SlotID) bool {
	if int(i) >= int(p.numSlots()) {
		return false
	}
	off, length := p.slot(i)
	if length == 0 {
		return false
	}
	p.setSlot(i, off, 0)
	return true
}
