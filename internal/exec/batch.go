package exec

// The allocation discipline under the operator contract (Iterator, iter.go):
// slab row allocation and pooled batch buffers keep the hot paths free of
// per-tuple allocation. The paper's charged cost is per tuple and independent
// of where batch boundaries fall, so the batch width is not a mode: every
// operator has one loop, BatchSize 1 runs it one row per call, and
// testdata/executor.golden — recorded from the tuple-at-a-time executor this
// one replaced — is the ground truth every width must reproduce.

import (
	"sync"
	"sync/atomic"

	"predplace/internal/catalog"
	"predplace/internal/expr"
)

// DefaultBatchSize is the rows-per-NextBatch width used when Env.BatchSize
// is 0. Large enough to amortize per-batch costs (one slab allocation, one
// shard lock per predicate-cache shard, one channel hop per exchange
// message), small enough that a batch of 100-byte tuples stays cache-warm.
const DefaultBatchSize = 256

// slabValues is the size in values of one row slab (128 KiB).
const slabValues = 4096

// rowAlloc carves rows out of contiguous value slabs: one slab amortizes
// across many rows instead of one allocation per row. The one lifetime rule
// (DESIGN.md §12): a result row is made by the last operator that can drop
// it. With a pool the slabs are the pool's, and the rows die when it rewinds
// or releases; without one (the operator build names as making result rows)
// every slab is fresh, zeroed and never recycled, so it grows with the rows
// made: four rows wide at first, doubling up to slabValues.
type rowAlloc struct {
	slab []expr.Value
	pool *slabPool
	size int // the last fresh slab's, in values; unused with a pool
}

// slabPool owns the row slabs of one lifetime: a query's (Env.slabs,
// released when Run returns) or one nested-loop inner subtree's (rewound at
// every rescan, or kept for a replayed inner, and released at Close). Slabs come from slabFree and go back to
// it neither reallocated nor re-zeroed; get takes the mutex once per slab,
// so the workers of an exchange share a pool. rewind and release take no
// lock: their callers have closed the operators carving from the pool, which
// joins the goroutines those started.
type slabPool struct {
	mu    sync.Mutex
	slabs []*[slabValues]expr.Value
	used  int
}

// slabFree is the process-wide free list of row slabs, trimmed by the
// collector; slabGets and slabPuts count its traffic (equal once every pool
// has been released).
var (
	slabFree           = sync.Pool{New: func() interface{} { return new([slabValues]expr.Value) }}
	slabGets, slabPuts atomic.Int64
)

// poisonSlabs makes rewind and release overwrite every value they
// invalidate with poisonValue, so a row retained past its lifetime reads as
// garbage instead of as a plausible later row. On under the race detector;
// tests may switch it on.
var poisonSlabs = SlabPoison

var poisonValue = expr.Value{Kind: 0xEE}

// get returns the pool's next slab.
func (p *slabPool) get() []expr.Value {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used == len(p.slabs) {
		p.slabs = append(p.slabs, slabFree.Get().(*[slabValues]expr.Value))
		slabGets.Add(1)
	}
	p.used++
	return p.slabs[p.used-1][:]
}

// rewind ends the life of every row carved so far; the slabs stay with the
// pool for the next get.
func (p *slabPool) rewind() {
	if poisonSlabs {
		for _, s := range p.slabs[:p.used] {
			for i := range s {
				s[i] = poisonValue
			}
		}
	}
	p.used = 0
}

// release is rewind, with the slabs returned to the free list.
func (p *slabPool) release() {
	p.rewind()
	for _, s := range p.slabs {
		slabFree.Put(s)
	}
	slabPuts.Add(int64(len(p.slabs)))
	p.slabs = nil
}

// next returns a row of the given width carved from the current slab,
// starting another slab when the current one is exhausted (a fresh one of
// its own for a row wider than a pool's slab). The row holds whatever its
// slab last held; callers overwrite every slot.
func (a *rowAlloc) next(width int) expr.Row {
	if len(a.slab) < width {
		if a.pool != nil && width <= slabValues {
			a.slab = a.pool.get()
		} else {
			a.size = max(width, min(max(2*a.size, 4*width), slabValues))
			a.slab = make([]expr.Value, a.size)
		}
	}
	row := expr.Row(a.slab[:width:width])
	a.slab = a.slab[width:]
	return row
}

// concat returns r followed by s as one carved row: a join's output pair,
// or with no s a copy of r that outlives the pool r is in.
func (a *rowAlloc) concat(r, s expr.Row) expr.Row {
	out := a.next(len(r) + len(s))
	copy(out, r)
	copy(out[len(r):], s)
	return out
}

// thinScan is what Build derives for a heap scan whose rows' fate is decided
// on a few of their columns (DESIGN.md §12: a column is decoded by the first
// operator that needs it). The scan decodes need — what the filters above it
// and the key of the join side it feeds read — into the carved row, and into
// slot mark, a column nobody reads before the row is kept, it puts the row's
// place on its page (thinKind). The operator that copies the row out anyway
// decodes the record from there instead (finisher.emit), once, and only for
// a row it keeps; a dropped row never pays for the other columns.
//
// pages[part] is the page the scan's part is on, pinned, for as long as a
// row on it may still be emitted: the consumer takes in every batch before
// it asks for the next, so it has emitted or dropped a page's rows by the
// time the scan unpins the page, and the scan ends its batches where its
// pages end. One thinScan serves every part of its scan under an exchange:
// each part writes its own slot, before any row on the page leaves it, and
// its consumer runs in the part's own worker.
type thinScan struct {
	codec *catalog.RowCodec
	need  []int
	mark  int      // a column outside need
	pages [][]byte // by part: one serially, a worker's each under an exchange
}

// thinKind is the kind of a thin row's mark slot, whose I is then the scan
// part << 16 | the record's offset on the part's page. No decoded value has
// it, so a row the scan decoded whole, or one completed since, is told apart
// by the same slot.
const thinKind expr.Type = 0xED

// finisher completes the thin rows one copying operator keeps. The memo is
// its own, so the workers' copies of an operator do not share.
type finisher struct {
	t    *thinScan
	memo catalog.DecodeMemo
}

// emit writes row into dst, which has row's width: decoded from row's record
// when row is thin, copied otherwise — always, when the input is no thin
// scan's.
func (f *finisher) emit(dst, row expr.Row) error {
	if f.t != nil {
		if h := row[f.t.mark]; h.Kind == thinKind {
			off := int(h.I & 0xFFFF)
			return f.t.codec.DecodeIntoMemo(f.t.pages[h.I>>16][off:off+f.t.codec.Width()], dst, &f.memo)
		}
	}
	copy(dst, row)
	return nil
}

// rowBufPool recycles the []expr.Row batch buffers operators shuttle rows
// through (collect buffers, exchange messages). Only the slice headers are
// pooled — the rows belong to their rowAlloc's lifetime — so a buffer may be
// recycled as soon as its rows have been handed off.
var rowBufPool = sync.Pool{
	New: func() interface{} {
		buf := make([]expr.Row, DefaultBatchSize)
		return &buf
	},
}

// getRowBuf returns a row buffer of length n from the pool.
func getRowBuf(n int) []expr.Row {
	buf := *rowBufPool.Get().(*[]expr.Row)
	if cap(buf) < n {
		buf = make([]expr.Row, n)
	}
	return buf[:n]
}

// putRowBuf recycles a buffer obtained from getRowBuf. The caller must not
// touch buf afterwards; rows it referenced stay valid (only the slice
// header is reused).
func putRowBuf(buf []expr.Row) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	rowBufPool.Put(&buf)
}
