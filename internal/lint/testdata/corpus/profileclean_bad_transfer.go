//corpus:path example.com/internal/exec

// Package corpus13 seeds profileclean violations in predicate-transfer
// shapes: scan iterators that allocate their probe scratch (hash buffer,
// keep mask) inside NextBatch on every call, regressing the hot path's
// allocation-free contract. Fixed twins live in
// profileclean_good_transfer.go.
package corpus13

type row []int64

type probeScanIter struct {
	hs   []uint64
	keep []bool
	pos  int
}

// hashScanIter hashes the join keys of the rows it scans.
type hashScanIter struct {
	hs  []uint64
	pos int
}

// NextBatch allocates a fresh hash buffer per call — per-call garbage on
// the default path.
func (s *hashScanIter) NextBatch(dst []row) (int, error) {
	hs := make([]uint64, 256) // want "allocates on every call"
	_ = hs
	s.pos++
	return 0, nil
}

// NextBatch rebuilds the keep mask as a literal on every batch.
func (s *probeScanIter) NextBatch(dst []row) (int, error) {
	s.keep = []bool{} // want "allocates on every call"
	return 0, nil
}
