// Package expr defines the runtime value model shared by the storage engine,
// the executor, and the optimizer: typed values, rows, comparison operators,
// and user-defined function descriptors with per-call cost metadata and
// invocation counting (the measurement methodology of Hellerstein, SIGMOD '94:
// expensive functions perform no work; the harness counts invocations and
// multiplies by the function's declared cost in random-I/O units).
package expr

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strconv"
)

// Type identifies the runtime type of a Value.
type Type uint8

// Supported value types. The benchmark schema uses integers for all join and
// predicate columns and a fixed-width string filler, matching the paper's
// 100-byte tuples.
const (
	TNull Type = iota
	TInt
	TString
	TBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "null"
	case TInt:
		return "int"
	case TString:
		return "string"
	case TBool:
		return "bool"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Value is a single typed datum. The zero Value is NULL.
type Value struct {
	Kind Type
	I    int64
	S    string
}

// Null is the NULL value.
var Null = Value{Kind: TNull}

// I returns an integer Value.
func I(v int64) Value { return Value{Kind: TInt, I: v} }

// S returns a string Value.
func S(s string) Value { return Value{Kind: TString, S: s} }

// B returns a boolean Value.
func B(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{Kind: TBool, I: i}
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == TNull }

// Bool interprets v as a three-valued boolean: (truth, known). NULL and
// non-boolean values are unknown.
func (v Value) Bool() (bool, bool) {
	if v.Kind == TBool {
		return v.I != 0, true
	}
	return false, false
}

// Compare orders two values. NULLs sort first; values of different types
// compare by type tag (the binder refuses a comparison between two types,
// but sorting must be total).
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		return int(v.Kind) - int(o.Kind)
	}
	switch v.Kind {
	case TNull:
		return 0
	case TInt, TBool:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	case TString:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	}
	return 0
}

// Equal reports whether two values are equal under Compare.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Hash returns a stable 64-bit hash of the value, suitable for hash joins and
// predicate-cache keys.
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	var buf [9]byte
	buf[0] = byte(v.Kind)
	switch v.Kind {
	case TInt, TBool:
		binary.LittleEndian.PutUint64(buf[1:], uint64(v.I))
		h.Write(buf[:])
	case TString:
		h.Write(buf[:1])
		h.Write([]byte(v.S))
	default:
		h.Write(buf[:1])
	}
	return h.Sum64()
}

// AppendKey appends a self-delimiting encoding of v to dst; used for
// predicate-cache keys and hash-join buckets over multi-column bindings.
func (v Value) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case TNull:
		// The kind byte alone encodes NULL.
	case TInt, TBool:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.I))
		dst = append(dst, buf[:]...)
	case TString:
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(len(v.S)))
		dst = append(dst, buf[:]...)
		dst = append(dst, v.S...)
	}
	return dst
}

// String renders the value for EXPLAIN output and error messages.
func (v Value) String() string {
	switch v.Kind {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case TString:
		return strconv.Quote(v.S)
	}
	return "?"
}

// Row is a sequence of values, one per output column of an operator.
type Row []Value

// Clone returns a copy of the row that does not alias r's backing array.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// CmpOp is a comparison operator in a simple predicate.
type CmpOp uint8

// Comparison operators supported in WHERE clauses.
const (
	OpEQ CmpOp = iota + 1
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	}
	return "?"
}

// Apply evaluates `a op b` with SQL NULL semantics (NULL operand => NULL).
func (op CmpOp) Apply(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if holds, ok := op.Holds(a.Compare(b)); ok {
		return B(holds)
	}
	return Null
}

// Holds reports whether two operands that compared as c (the sign of
// Compare) satisfy op; ok is false for an unknown operator.
func (op CmpOp) Holds(c int) (holds, ok bool) {
	switch op {
	case OpEQ:
		return c == 0, true
	case OpNE:
		return c != 0, true
	case OpLT:
		return c < 0, true
	case OpLE:
		return c <= 0, true
	case OpGT:
		return c > 0, true
	case OpGE:
		return c >= 0, true
	}
	return false, false
}

// Flip returns the operator with operands swapped: a op b == b op.Flip() a.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case OpEQ, OpNE:
		return op // symmetric
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	}
	return op
}
