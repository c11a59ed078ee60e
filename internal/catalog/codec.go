package catalog

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"

	"predplace/internal/expr"
	"predplace/internal/storage"
)

// RowCodec encodes rows of a table's schema into fixed-width byte records.
// Integers take 9 bytes (1 null flag + 8 value); strings take 1 null flag +
// FixedLen bytes, NUL-padded. The benchmark schema pads every tuple to the
// paper's 100 bytes via a trailing string filler column.
type RowCodec struct {
	cols   []Column
	layout []colLayout
	all    []int // every column index, in order: DecodeCols' set for a whole row
	width  int
}

// colLayout is one column's place in the record, compiled once from the
// schema: the null flag sits at off, followed by len payload bytes.
type colLayout struct {
	off, len int
	kind     expr.Type
}

// NewRowCodec builds a codec for the given columns.
func NewRowCodec(cols []Column) (*RowCodec, error) {
	layout := make([]colLayout, len(cols))
	all := make([]int, len(cols))
	w := 0
	for i, c := range cols {
		all[i] = i
		layout[i] = colLayout{off: w, len: 8, kind: c.Type}
		switch c.Type {
		case expr.TInt, expr.TBool:
		case expr.TString:
			if c.FixedLen <= 0 {
				return nil, fmt.Errorf("catalog: string column %s needs FixedLen", c.Name)
			}
			layout[i].len = c.FixedLen
		default:
			return nil, fmt.Errorf("catalog: unsupported column type %v for %s", c.Type, c.Name)
		}
		w += 1 + layout[i].len
	}
	return &RowCodec{cols: append([]Column(nil), cols...), layout: layout, all: all, width: w}, nil
}

// Width returns the fixed encoded record width in bytes.
func (rc *RowCodec) Width() int { return rc.width }

// AllCols returns every column index in schema order — DecodeCols' set for a
// whole row. The slice is shared: callers must not modify it.
func (rc *RowCodec) AllCols() []int { return rc.all }

// Encode serializes row (which must match the schema arity) into a fresh
// record.
func (rc *RowCodec) Encode(row expr.Row) ([]byte, error) {
	out := make([]byte, rc.width)
	if err := rc.EncodeInto(out, row); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeInto serializes row into out, a Width-byte buffer it clears first,
// so a NULL's payload and a string's padding are zero bytes however out was
// used before.
func (rc *RowCodec) EncodeInto(out []byte, row expr.Row) error {
	if len(row) != len(rc.cols) || len(out) != rc.width {
		return fmt.Errorf("catalog: row arity %d into %d bytes, schema arity %d width %d", len(row), len(out), len(rc.cols), rc.width)
	}
	clear(out)
	for i, l := range rc.layout {
		v := row[i]
		if v.IsNull() {
			continue
		}
		out[l.off] = 1
		field := out[l.off+1 : l.off+1+l.len]
		if l.kind == expr.TString {
			if v.Kind != expr.TString {
				return fmt.Errorf("catalog: column %s wants string, got %v", rc.cols[i].Name, v.Kind)
			}
			if len(v.S) > l.len {
				return fmt.Errorf("catalog: value %q exceeds column %s width %d", v.S, rc.cols[i].Name, l.len)
			}
			copy(field, v.S)
			continue
		}
		if v.Kind != expr.TInt && v.Kind != expr.TBool {
			return fmt.Errorf("catalog: column %s wants int, got %v", rc.cols[i].Name, v.Kind)
		}
		binary.LittleEndian.PutUint64(field, uint64(v.I))
	}
	return nil
}

// Decode deserializes a record into a freshly allocated row.
func (rc *RowCodec) Decode(rec []byte) (expr.Row, error) {
	row := make(expr.Row, len(rc.cols))
	if err := rc.DecodeInto(rec, row); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodeMemo caches the most recently decoded string per column so repeated
// values (the benchmark's constant filler column, low-cardinality strings)
// decode without allocating. Each scan owns its memo — the codec itself is
// shared across concurrent scans and stays immutable.
type DecodeMemo struct {
	last []memoString
}

// memoString is one column's previous value: the field's raw padded bytes
// and the string they trimmed to.
type memoString struct {
	raw []byte
	s   string
}

// DecodeInto deserializes a record into row, which must have exactly one
// slot per column — the allocation-free decode batched scans use to fill
// slab-carved rows. rec may alias pinned page memory: every decoded value
// (including string columns) is copied out, so row does not retain rec.
func (rc *RowCodec) DecodeInto(rec []byte, row expr.Row) error {
	return rc.DecodeIntoMemo(rec, row, nil)
}

// DecodeIntoMemo is DecodeInto with string-value memoization: DecodeCols over
// every column. Every slot of row is overwritten, NULLs included: rows
// carved from recycled slabs hold a previous query's values until then.
func (rc *RowCodec) DecodeIntoMemo(rec []byte, row expr.Row, memo *DecodeMemo) error {
	return rc.DecodeCols(rec, row, rc.all, memo)
}

// DecodeCols is the codec's one decode routine: it deserializes the columns
// of rec that cols lists into their slots of row — which has one slot per
// column of the schema — and leaves every other slot as it was. A scan
// decodes the columns a row's fate depends on, and whoever keeps the row
// decodes the rest from the same record (DESIGN.md §12); DecodeIntoMemo is
// the call with every column. With a memo, a string column whose raw field
// equals the previous record's — one comparison, padding included, before
// any trimming — reuses the prior string instead of allocating a copy.
func (rc *RowCodec) DecodeCols(rec []byte, row expr.Row, cols []int, memo *DecodeMemo) error {
	if len(rec) != rc.width {
		return fmt.Errorf("catalog: record length %d, want %d", len(rec), rc.width)
	}
	if len(row) != len(rc.layout) {
		return fmt.Errorf("catalog: row has %d slots, want %d", len(row), len(rc.layout))
	}
	layout := rc.layout
	row = row[:len(layout)] // one bounds check for the loop, not one per column
	for _, i := range cols {
		if uint(i) >= uint(len(layout)) {
			return fmt.Errorf("catalog: column index %d out of range", i)
		}
		l := &layout[i]
		field := rec[l.off+1 : l.off+1+l.len]
		switch {
		case rec[l.off] != 1:
			row[i] = expr.Null
		case l.kind == expr.TInt:
			row[i] = expr.Value{Kind: expr.TInt, I: int64(binary.LittleEndian.Uint64(field))}
		case l.kind == expr.TBool:
			row[i] = expr.B(binary.LittleEndian.Uint64(field) != 0)
		case memo == nil:
			row[i] = expr.S(trimNUL(field))
		default:
			if memo.last == nil {
				memo.last = make([]memoString, len(layout))
			}
			m := &memo.last[i]
			if !bytes.Equal(m.raw, field) {
				m.raw, m.s = append(m.raw[:0], field...), trimNUL(field)
			}
			row[i] = expr.S(m.s)
		}
	}
	return nil
}

// trimNUL copies a string field out of its record without the NUL padding.
func trimNUL(field []byte) string {
	end := len(field)
	for end > 0 && field[end-1] == 0 {
		end--
	}
	return string(field[:end])
}

// DecodeCol extracts a single column's value from a record without decoding
// the whole row (used by index builds and key probes). It indexes the
// compiled layout, and rejects a short or long record as DecodeCols does.
func (rc *RowCodec) DecodeCol(rec []byte, idx int) (expr.Value, error) {
	l, err := rc.colOf(rec, idx)
	if err != nil {
		return expr.Null, err
	}
	field := rec[l.off+1 : l.off+1+l.len]
	switch {
	case rec[l.off] != 1:
		return expr.Null, nil
	case l.kind == expr.TInt:
		return expr.I(int64(binary.LittleEndian.Uint64(field))), nil
	case l.kind == expr.TBool:
		return expr.B(binary.LittleEndian.Uint64(field) != 0), nil
	}
	return expr.S(trimNUL(field)), nil
}

// IntField is an int or bool column's place in a record, compiled once
// (RowCodec.IntField), for reading the column in place without a decode.
type IntField struct {
	off, width int
	bool       bool
}

// IntField returns column idx's IntField; ok is false unless idx is an int
// or bool column.
func (rc *RowCodec) IntField(idx int) (f IntField, ok bool) {
	if idx < 0 || idx >= len(rc.layout) {
		return IntField{}, false
	}
	l := rc.layout[idx]
	if l.kind != expr.TInt && l.kind != expr.TBool {
		return IntField{}, false
	}
	return IntField{off: l.off, width: rc.width, bool: l.kind == expr.TBool}, true
}

// Read returns the field's integer in rec — a bool's as expr.B gives it, 0
// or 1 — and whether it is NULL, when the integer is 0. ok is false for a
// record of the wrong length, which DecodeCols reports.
func (f IntField) Read(rec []byte) (v int64, null, ok bool) {
	if len(rec) != f.width {
		return 0, false, false
	}
	if rec[f.off] != 1 {
		return 0, true, true
	}
	v = int64(binary.LittleEndian.Uint64(rec[f.off+1 : f.off+9]))
	if f.bool && v != 0 {
		v = 1
	}
	return v, false, true
}

// colOf returns column idx's layout, or the error DecodeCol reports for a
// column out of range or a record of the wrong length.
func (rc *RowCodec) colOf(rec []byte, idx int) (*colLayout, error) {
	if idx < 0 || idx >= len(rc.layout) {
		return nil, fmt.Errorf("catalog: column index %d out of range", idx)
	}
	if len(rec) != rc.width {
		return nil, fmt.Errorf("catalog: record length %d, want %d", len(rec), rc.width)
	}
	return &rc.layout[idx], nil
}

// ColTest is the comparison `column Col Op Val` on an encoded record: a
// cheap selection a scan evaluates before any row exists (DESIGN.md §12).
type ColTest struct {
	Col int
	Op  expr.CmpOp
	Val expr.Value
}

// Test reports whether rec satisfies t under WHERE semantics — NULL and
// false both reject — reading the field in place: an int field against an
// int constant as its eight bytes, a string field against a string constant
// as its NUL-trimmed bytes, neither allocating. Any other pair of kinds is
// the reference, op.Apply(DecodeCol(rec, Col), Val), which it equals
// everywhere, errors included (FuzzColTest).
func (rc *RowCodec) Test(rec []byte, t ColTest) (bool, error) {
	l, err := rc.colOf(rec, t.Col)
	if err != nil {
		return false, err
	}
	if rec[l.off] != 1 || t.Val.IsNull() {
		return false, nil
	}
	field := rec[l.off+1 : l.off+1+l.len]
	var c int
	switch {
	case l.kind == expr.TInt && t.Val.Kind == expr.TInt:
		c = cmp.Compare(int64(binary.LittleEndian.Uint64(field)), t.Val.I)
	case l.kind == expr.TString && t.Val.Kind == expr.TString:
		end := len(field)
		for end > 0 && field[end-1] == 0 {
			end--
		}
		switch s := field[:end]; {
		case string(s) == t.Val.S:
		case string(s) < t.Val.S:
			c = -1
		default:
			c = 1
		}
	default:
		v, err := rc.DecodeCol(rec, t.Col)
		if err != nil {
			return false, err
		}
		holds, known := t.Op.Apply(v, t.Val).Bool()
		return known && holds, nil
	}
	holds, _ := t.Op.Holds(c)
	return holds, nil
}

// In is SQL's three-valued x IN (set), the set being column out of the
// table's records that pass every test: TRUE when a qualifying record's out
// equals x; otherwise NULL when x is NULL or a qualifying out is, as long
// as the set is not empty; FALSE over the empty set, whatever x is. With
// not set it is NOT IN, the negation, NULL staying NULL. A record is tested
// where it lies, and only one that qualifies has its out column decoded.
//
// The scan reads through the shared buffer pool under tr, the running
// query's I/O tracker, so the page traffic is charged to that query alone.
// A scan or decode failure propagates instead of folding into a truth
// value: under injected faults a silently wrong answer would be worse than
// the fault itself.
func (t *Table) In(tr *storage.IOTracker, x expr.Value, tests []ColTest, out int, not bool) (expr.Value, error) {
	unknown := false
	it := t.Heap.WithTracker(tr).Scan()
	defer it.Close()
scan:
	for {
		rec, _, ok, err := it.NextRef() // page memory: read in place
		if err != nil {
			return expr.Null, fmt.Errorf("catalog: IN scan of %s: %w", t.Name, err)
		}
		if !ok {
			break
		}
		for _, ct := range tests {
			pass, err := t.Codec.Test(rec, ct)
			if err != nil {
				return expr.Null, fmt.Errorf("catalog: IN decode of %s: %w", t.Name, err)
			}
			if !pass {
				continue scan
			}
		}
		y, err := t.Codec.DecodeCol(rec, out)
		if err != nil {
			return expr.Null, fmt.Errorf("catalog: IN decode of %s: %w", t.Name, err)
		}
		switch {
		case x.IsNull():
			return expr.Null, nil // nothing equals x, and the set is not empty
		case y.IsNull():
			unknown = true
		case y.Equal(x):
			return expr.B(!not), nil
		}
	}
	if unknown {
		return expr.Null, nil
	}
	return expr.B(not), nil
}
