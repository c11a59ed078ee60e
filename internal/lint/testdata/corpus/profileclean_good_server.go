//corpus:path example.com/internal/exec

// Package corpus22 holds the fixed twins of profileclean_bad_server.go:
// the session stream's hot path reuses its buffers, allocating only under
// the grow-once guard (when a reused buffer is too small), never on the
// steady state. Both methods are silent.
package corpus22

type row []int64

type sessionStreamIter struct {
	buf  []int64
	cols []bool
	pos  int
}

// sessionRowIter hands up one response row per call.
type sessionRowIter struct {
	buf []int64
	pos int
}

// NextBatch reuses the iterator's row buffer, growing it only when a wider
// row arrives.
func (s *sessionRowIter) NextBatch(dst []row) (int, error) {
	if cap(s.buf) < 8 {
		s.buf = make([]int64, 8)
	}
	s.buf = s.buf[:8]
	s.pos++
	return 0, nil
}

// NextBatch builds the column mask once and keeps it across calls.
func (s *sessionStreamIter) NextBatch(dst []row) (int, error) {
	if s.cols == nil {
		s.cols = []bool{true, true}
	}
	return 0, nil
}
