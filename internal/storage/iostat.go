// Package storage implements the paged storage substrate: 8 KiB slotted
// pages, an in-memory simulated disk with sequential/random I/O accounting,
// a buffer pool with LRU replacement, and heap files of fixed-schema tuples.
//
// The paper reports costs in units of random database I/Os; every physical
// page access in this package flows through an Accountant so the executor can
// report an honest "charged cost" (page I/Os + function-invocation charges).
package storage

import "sync/atomic"

// Accountant tallies physical I/O. Reads are classified as sequential when
// they target the page immediately following the previous read of the same
// file (the common case for heap scans), otherwise random. Index probes and
// out-of-order heap fetches therefore count as random I/Os, matching the
// cost model of the paper.
//
// All counters are lock-free atomics so parallel workers can record I/O
// without serializing on a mutex. Under concurrency the sequential/random
// split is best-effort (two workers racing on `last` may classify a
// sequential read as random), but the total — the paper's charged unit —
// is exact; single-threaded runs classify exactly as before.
type Accountant struct {
	seqReads  atomic.Int64
	randReads atomic.Int64
	writes    atomic.Int64
	// last packs the previously read (file, page) plus a validity bit so
	// sequential-read detection is a single load/compare/store.
	last atomic.Uint64
	// hook is told of each read or write once it is counted (SetHook).
	hook ChargeHook
}

// A ChargeHook is told of each read or write an Accountant records, once it
// is counted: how a query with a charged-cost budget sees its page I/O the
// moment it is charged.
type ChargeHook interface{ OnCharge() }

// SetHook makes the accountant call h.OnCharge after each read or write it
// records (nil: none). Set it before the accountant is shared between
// goroutines.
func (a *Accountant) SetHook(h ChargeHook) { a.hook = h }

// lastValid marks the packed last-read word as holding a real position.
const lastValid = 1 << 63

// packLast encodes a read position into the last-read word.
func packLast(f FileID, p PageID) uint64 {
	return lastValid | uint64(f)<<32 | uint64(p)
}

// IOStats is a snapshot of accumulated I/O counts.
type IOStats struct {
	SeqReads  int64 // sequential page reads
	RandReads int64 // random page reads
	Writes    int64 // page writes
}

// Total returns the total number of page I/Os (reads + writes).
func (s IOStats) Total() int64 { return s.SeqReads + s.RandReads + s.Writes }

// Sub returns s - o componentwise; used to attribute I/O to a single query.
func (s IOStats) Sub(o IOStats) IOStats {
	return IOStats{
		SeqReads:  s.SeqReads - o.SeqReads,
		RandReads: s.RandReads - o.RandReads,
		Writes:    s.Writes - o.Writes,
	}
}

// RecordRead notes a physical read of page p of file f.
func (a *Accountant) RecordRead(f FileID, p PageID) {
	if p > 0 && a.last.Load() == packLast(f, p-1) {
		a.seqReads.Add(1)
	} else {
		a.randReads.Add(1)
	}
	a.last.Store(packLast(f, p))
	if a.hook != nil {
		a.hook.OnCharge()
	}
}

// RecordRandRead notes a physical access that is random by construction
// (e.g. a B-tree leaf probe charged by the index layer).
func (a *Accountant) RecordRandRead() {
	a.randReads.Add(1)
	a.last.Store(0)
	if a.hook != nil {
		a.hook.OnCharge()
	}
}

// RecordWrite notes a physical page write.
func (a *Accountant) RecordWrite() {
	a.writes.Add(1)
	if a.hook != nil {
		a.hook.OnCharge()
	}
}

// Stats returns a snapshot of the counters.
func (a *Accountant) Stats() IOStats {
	return IOStats{
		SeqReads:  a.seqReads.Load(),
		RandReads: a.randReads.Load(),
		Writes:    a.writes.Load(),
	}
}

// Reset zeroes all counters.
func (a *Accountant) Reset() {
	a.seqReads.Store(0)
	a.randReads.Store(0)
	a.writes.Store(0)
	a.last.Store(0)
}
