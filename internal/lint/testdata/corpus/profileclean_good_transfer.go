//corpus:path example.com/internal/exec

// Package corpus14 holds the fixed twins of profileclean_bad_transfer.go:
// the probe scratch grows once under a capacity guard and is reused on the
// steady state, so NextBatch stays allocation-free per call.
package corpus14

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

// NextBatch reuses the hash buffer, growing it only when too small.
func (s *hashScanIter) NextBatch(dst []row) (int, error) {
	if cap(s.hs) < 256 {
		s.hs = make([]uint64, 256)
	}
	s.pos++
	return 0, nil
}

// NextBatch grows the keep mask under the same guard and reslices otherwise.
func (s *probeScanIter) NextBatch(dst []row) (int, error) {
	if cap(s.keep) < len(dst) {
		s.keep = make([]bool, len(dst))
	}
	s.keep = s.keep[:len(dst)]
	return 0, nil
}
