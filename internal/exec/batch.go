package exec

// Batch-at-a-time execution: the optional NextBatch fast path of the
// Volcano contract, plus the allocation discipline (slab row allocation,
// pooled batch buffers) that makes the batched hot paths allocation-free
// per tuple. Tuple-at-a-time Next remains the semantic ground truth: a
// batched operator must produce exactly the rows, order, and charged cost
// of its Next loop, because batching only amortizes per-row interface
// calls, lock acquisitions, and allocations — the paper's charged cost is
// per-tuple and independent of batch boundaries.

import (
	"sync"

	"predplace/internal/expr"
)

// DefaultBatchSize is the rows-per-NextBatch width used when Env.BatchSize
// is 0. Large enough to amortize per-batch costs (one slab allocation, one
// shard lock per predicate-cache shard, one channel hop per exchange
// message), small enough that a batch of 100-byte tuples stays cache-warm.
const DefaultBatchSize = 256

// BatchIterator is the optional batch fast path of the iterator contract.
//
// NextBatch fills dst with up to len(dst) rows and returns how many were
// produced. n == 0 with a nil error signals exhaustion (the analog of
// Next's ok=false); errors imply n == 0 — an erroring call produces no
// rows. Implementations must not retain dst (or any reslice of it) across
// calls; rows written into dst are owned by the caller. Open/Close
// semantics are unchanged from Iterator.
type BatchIterator interface {
	Iterator
	NextBatch(dst []expr.Row) (int, error)
}

// nextBatch fills dst from it, taking the batch fast path when the
// operator implements it and falling back to per-tuple Next calls
// otherwise, so every operator composes with batched consumers unmodified.
func nextBatch(it Iterator, dst []expr.Row) (int, error) {
	if b, ok := it.(BatchIterator); ok {
		return b.NextBatch(dst)
	}
	n := 0
	for n < len(dst) {
		row, ok, err := it.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		dst[n] = row
		n++
	}
	return n, nil
}

// slabValues is the size in values of one row-slab allocation.
const slabValues = 4096

// rowAlloc carves rows out of contiguous value slabs: one slab allocation
// amortizes across slabValues/width rows instead of one allocation per
// row. Without a pool, carved rows are never recycled — consumers may
// retain them freely (result sets, hash-join builds) — the slab simply
// becomes garbage when its rows do.
type rowAlloc struct {
	slab []expr.Value
	// pool, set on the serial operators of a nested-loop inner subtree,
	// supplies the slabs instead: rows then live until the next rescan.
	pool *slabPool
}

// slabPool recycles the row slabs of one nested-loop join's inner subtree.
// Rows that subtree produces are valid only until its next rescan: the join
// copies the pairs it keeps, rewinds the pool, and the rebuilt subtree
// carves its rows from the same slabs, neither reallocated nor re-zeroed.
// Not safe for concurrent use: it reaches only operators that run on the
// goroutine driving the join, and an exchange's subtree keeps fresh slabs.
type slabPool struct {
	slabs [][]expr.Value
	used  int
}

func (p *slabPool) get() []expr.Value {
	if p.used == len(p.slabs) {
		p.slabs = append(p.slabs, make([]expr.Value, slabValues))
	}
	p.used++
	return p.slabs[p.used-1]
}

// next returns a row of the given width carved from the current slab,
// starting another slab when the current one is exhausted. The row is
// zeroed only when its slab is fresh; callers overwrite every slot.
func (a *rowAlloc) next(width int) expr.Row {
	if len(a.slab) < width {
		switch {
		case width > slabValues:
			a.slab = make([]expr.Value, width)
		case a.pool != nil:
			a.slab = a.pool.get()
		default:
			a.slab = make([]expr.Value, slabValues)
		}
	}
	row := expr.Row(a.slab[:width:width])
	a.slab = a.slab[width:]
	return row
}

// concat returns r followed by s as one carved row — the slab counterpart
// of Row.Concat for join outputs.
func (a *rowAlloc) concat(r, s expr.Row) expr.Row {
	out := a.next(len(r) + len(s))
	copy(out, r)
	copy(out[len(r):], s)
	return out
}

// rowBufPool recycles the []expr.Row batch buffers operators shuttle rows
// through (pump buffers, exchange messages, worker task batches). Only the
// slice headers are pooled — rows themselves are owned by whoever received
// them — so a buffer may be recycled as soon as its rows have been handed
// off.
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
