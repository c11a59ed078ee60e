//corpus:path example.com/internal/exec

// Package corpus21 seeds profileclean violations in server result-stream
// shapes: the iterators feeding a session's response build a fresh row
// buffer and a fresh column mask on every NextBatch call — per-call garbage
// multiplied by every concurrent session. Fixed twins live in
// profileclean_good_server.go.
package corpus21

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

// NextBatch allocates the response row on every call instead of reusing the
// iterator's buffer.
func (s *sessionRowIter) NextBatch(dst []row) (int, error) {
	out := make([]int64, 8) // want "allocates on every call"
	_ = out
	s.pos++
	return 0, nil
}

// NextBatch rebuilds the projected-column mask as a literal per batch.
func (s *sessionStreamIter) NextBatch(dst []row) (int, error) {
	s.cols = []bool{true, true} // want "allocates on every call"
	return 0, nil
}
