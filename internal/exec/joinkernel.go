package exec

// Typed-key join kernels (DESIGN.md §12): the one hash table every hash-join
// path builds and probes, and the key sort the merge join runs. Both work on
// the join column's int64 payload directly when the key is an integer — the
// benchmark schema's only join-key type — and fall back to expr.Value
// equality / Compare for every other kind, so no key is ever re-encoded.

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

	"predplace/internal/expr"
)

// joinTable is the build side of a hash join: rows in insertion order in one
// flat slice, rows of equal key linked through next in insertion order, and
// the head of each chain found by key. Integer keys live in an open-addressed
// table keyed by the int64 itself; keys of any other kind in a map keyed by
// the Value, so TInt and TBool of equal payload never meet and a mixed-kind
// column simply uses both. NULL keys are never linked and never match.
//
// Probe with first, then walk: for i := t.first(k); i >= 0; i = t.next[i]
// visits t.rows[i] in the order the rows were added. Row positions are
// int32, which bounds one table at 2^31 rows. Not safe for concurrent add;
// concurrent probes of a finished table only read.
type joinTable struct {
	idx   int // key column of the added rows
	rows  []expr.Row
	next  []int32
	slots []intSlot // power-of-two length, at most half occupied
	used  int       // occupied slots
	shift uint      // 64 - log2(len(slots))
	other map[expr.Value]chainEnds
}

// intSlot is one open-addressing slot: a key and the ends of its chain.
type intSlot struct {
	key  int64
	head int32 // first row of the chain, plus one; 0 marks an empty slot
	tail int32 // last row of the chain
}

// chainEnds is a non-integer key's chain.
type chainEnds struct{ head, tail int32 }

// joinTableMinSlots is the slot count of the first integer table.
const joinTableMinSlots = 64

// fibHash is key's home slot in a power-of-two table of 2^(64-shift)
// slots. Fibonacci hashing: the multiply by 2^64/φ spreads consecutive keys
// (the usual join column) over the whole table and the top bits index it.
func fibHash(key int64, shift uint) uint64 { return uint64(key) * fibMul >> shift }

const fibMul = 0x9E3779B97F4A7C15

// slot returns the slot holding key, or the empty slot where it belongs.
func (t *joinTable) slot(key int64) *intSlot {
	mask := uint64(len(t.slots) - 1)
	for s := fibHash(key, t.shift); ; s = (s + 1) & mask {
		if sl := &t.slots[s]; sl.head == 0 || sl.key == key {
			return sl
		}
	}
}

// reserve sizes an empty table for n rows with integer keys, so that a build
// of about that many never doubles (doubling is two thirds of a build's
// bytes). Callers pass a cardHint: the table grows past it like any other.
func (t *joinTable) reserve(n int) {
	if n <= 0 {
		return
	}
	t.rows, t.next = make([]expr.Row, 0, n), make([]int32, 0, n)
	slots := joinTableMinSlots
	for slots < 2*n {
		slots *= 2
	}
	t.resize(slots)
}

// grow doubles the integer table (or creates it).
func (t *joinTable) grow() { t.resize(max(2*len(t.slots), joinTableMinSlots)) }

// resize gives the integer table n slots and re-seats every chain.
func (t *joinTable) resize(n int) {
	old := t.slots
	t.slots = make([]intSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, sl := range old {
		if sl.head != 0 {
			*t.slot(sl.key) = sl
		}
	}
}

// add appends row to the table, linking it behind the earlier rows of its
// key. A row whose key is NULL is dropped: it can match nothing.
func (t *joinTable) add(row expr.Row) {
	k := row[t.idx]
	if k.IsNull() {
		return
	}
	i := int32(len(t.rows))
	t.rows = append(t.rows, row)
	t.next = append(t.next, -1)
	if k.Kind == expr.TInt {
		if 2*(t.used+1) > len(t.slots) {
			t.grow()
		}
		sl := t.slot(k.I)
		if sl.head == 0 {
			sl.key, sl.head = k.I, i+1
			t.used++
		} else {
			t.next[sl.tail] = i
		}
		sl.tail = i
		return
	}
	if t.other == nil {
		t.other = make(map[expr.Value]chainEnds)
	}
	c, ok := t.other[k]
	if ok {
		t.next[c.tail] = i
	} else {
		c.head = i
	}
	c.tail = i
	t.other[k] = c
}

// first returns the position of the first row added with the given key, or
// -1 when there is none.
func (t *joinTable) first(key expr.Value) int32 {
	if key.Kind == expr.TInt {
		if t.used == 0 {
			return -1
		}
		return t.slot(key.I).head - 1
	}
	if c, ok := t.other[key]; ok {
		return c.head
	}
	return -1
}

// keySet is a set of integer join keys: the keys a merge join's first side
// has, which its second side's scan looks its records' keys up in (keyGate).
// Open addressing with Fibonacci hashing and linear probing, as in joinTable,
// sized once for the keys it will hold and so never more than half full. An
// empty slot holds 0, so the key 0 is a flag of its own. Not safe for
// concurrent add; a finished set is only read.
type keySet struct {
	slots []int64 // power-of-two length
	shift uint    // 64 - log2(len(slots))
	zero  bool    // whether 0 is in the set
}

// keySetPool recycles key sets: a merge join's lives only while its second
// side drains.
var keySetPool = sync.Pool{New: func() interface{} { return new(keySet) }}

// getKeySet returns an empty set for at most n keys, from the pool; the
// caller puts it back (keySetPool.Put) once nothing reads it.
func getKeySet(n int) *keySet {
	slots := joinTableMinSlots
	for slots < 2*n {
		slots *= 2
	}
	s := keySetPool.Get().(*keySet)
	if cap(s.slots) < slots {
		s.slots = make([]int64, slots)
	} else {
		s.slots = s.slots[:slots]
		clear(s.slots)
	}
	s.shift, s.zero = uint(64-bits.TrailingZeros(uint(slots))), false
	return s
}

// slot returns the slot holding k (k != 0), or the empty slot where it
// belongs.
func (s *keySet) slot(k int64) *int64 {
	mask := uint64(len(s.slots) - 1)
	for i := fibHash(k, s.shift); ; i = (i + 1) & mask {
		if sl := &s.slots[i]; *sl == 0 || *sl == k {
			return sl
		}
	}
}

func (s *keySet) add(k int64) {
	if k == 0 {
		s.zero = true
		return
	}
	*s.slot(k) = k
}

func (s *keySet) has(k int64) bool {
	if k == 0 {
		return s.zero
	}
	return *s.slot(k) != 0
}

// keysOf returns the set of rows' keys in column idx, NULL left out — or nil
// when a key is neither NULL nor an integer, which a keySet cannot hold. A
// set it returns is the pool's (getKeySet).
func keysOf(rows []expr.Row, idx int) *keySet {
	s := getKeySet(len(rows))
	for _, r := range rows {
		switch k := r[idx]; k.Kind {
		case expr.TInt:
			s.add(k.I)
		case expr.TNull:
		default:
			keySetPool.Put(s)
			return nil
		}
	}
	return s
}

// keyPos is one sort record: a row's integer key and its input position.
type keyPos struct {
	key int64
	pos int32
}

// sortBufPool recycles sortRowsByKey's records and radix scratch.
var sortBufPool = sync.Pool{New: func() interface{} { return new([]keyPos) }}

// radixMin is the input size below which the records are comparison-sorted:
// a radix pass costs two sweeps of a 256-entry histogram whatever the size.
const radixMin = 64

// sortRowsByKey sorts rows by column idx ascending under Value.Compare,
// keeping rows of equal key in their input order. When every key is an
// integer it sorts (key, position) records — by least-significant-digit
// radix passes over the bytes in which the keys differ from the smallest,
// each pass stable, so equal keys stay in input order with no tie-break —
// and then moves each row header once, following the permutation's cycles;
// otherwise (NULLs, strings, mixed kinds) it stable-sorts the headers with
// the general comparator.
func sortRowsByKey(rows []expr.Row, idx int) {
	n := len(rows)
	if n < 2 {
		return
	}
	bufp := sortBufPool.Get().(*[]keyPos)
	defer sortBufPool.Put(bufp)
	if cap(*bufp) < 2*n {
		*bufp = make([]keyPos, 2*n)
	}
	recs, scratch := (*bufp)[:n], (*bufp)[n:2*n]
	// One sweep both fills the records and finds out whether they can be
	// used: the rows lie all over the query's slabs, and reading a key from
	// each costs more than the radix passes do.
	lo, hi := rows[0][idx].I, rows[0][idx].I
	for i, r := range rows {
		if r[idx].Kind != expr.TInt {
			slices.SortStableFunc(rows, func(a, b expr.Row) int { return a[idx].Compare(b[idx]) })
			return
		}
		k := r[idx].I
		recs[i] = keyPos{k, int32(i)}
		lo, hi = min(lo, k), max(hi, k)
	}
	if n < radixMin {
		slices.SortStableFunc(recs, func(a, b keyPos) int { return cmp.Compare(a.key, b.key) })
	} else {
		// key - lo as an unsigned number orders as key does and is below
		// 2^(8·passes): wrap-around makes that hold across the int64 range.
		span := uint64(hi) - uint64(lo)
		for shift := 0; shift < 64 && span>>shift != 0; shift += 8 {
			var count [256]int
			for _, r := range recs {
				count[(uint64(r.key)-uint64(lo))>>shift&0xFF]++
			}
			at := 0
			for d, c := range count {
				count[d], at = at, at+c
			}
			for _, r := range recs {
				d := (uint64(r.key) - uint64(lo)) >> shift & 0xFF
				scratch[count[d]] = r
				count[d]++
			}
			recs, scratch = scratch, recs
		}
	}
	// recs[d].pos is now the input position of the row that belongs at d.
	for i := range recs {
		if int(recs[i].pos) == i {
			continue
		}
		displaced := rows[i]
		for d := i; ; {
			s := int(recs[d].pos)
			recs[d].pos = int32(d) // d is settled
			if s == i {
				rows[d] = displaced
				break
			}
			rows[d] = rows[s]
			d = s
		}
	}
}
