//corpus:path example.com/internal/exec

// Package corpus18 holds the fixed twins of profileclean_bad_topk.go: the
// heap storage grows once under a capacity guard (or comes from the row
// pool at fill time) and is resliced on reuse, so NextBatch stays
// allocation-free per call.
package corpus18

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

// NextBatch reuses the heap backing, growing it only when too small.
func (h *heapFillIter) NextBatch(dst []row) (int, error) {
	if cap(h.heap) < 64 {
		h.heap = make([]row, 0, 64)
	}
	h.heap = h.heap[:0]
	h.pos++
	return 0, nil
}

// NextBatch grows the emission scratch under the same guard and reslices
// otherwise.
func (h *heapIter) NextBatch(dst []row) (int, error) {
	if cap(h.out) < len(dst) {
		h.out = make([]row, len(dst))
	}
	h.out = h.out[:len(dst)]
	return 0, nil
}
