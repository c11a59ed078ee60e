//corpus:path example.com/internal/exec

// Package corpus17 seeds profileclean violations in top-k shapes: a
// bounded-heap iterator that allocates its heap storage, and one that
// allocates its emission scratch, inside NextBatch on every call, regressing
// the hot path's allocation-free contract. Fixed twins live in profileclean_good_topk.go.
package corpus17

type row []int64

type heapIter struct {
	heap []row
	out  []row
	pos  int
}

// heapFillIter admits rows into the heap.
type heapFillIter struct {
	heap []row
	pos  int
}

// NextBatch rebuilds the heap backing per call — per-call garbage on the
// default path.
func (h *heapFillIter) NextBatch(dst []row) (int, error) {
	h.heap = make([]row, 0, 64) // want "allocates on every call"
	h.pos++
	return 0, nil
}

// NextBatch rebuilds the emission scratch as a literal on every batch.
func (h *heapIter) NextBatch(dst []row) (int, error) {
	h.out = []row{} // want "allocates on every call"
	return 0, nil
}
