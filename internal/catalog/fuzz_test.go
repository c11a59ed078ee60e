package catalog

import (
	"testing"

	"predplace/internal/expr"
)

// FuzzRowCodec holds the layout-compiled codec to its two promises on
// arbitrary record bytes, an arbitrary column subset (the bits of mask, over
// mixedCols) and one arbitrary extra column index. A record of the wrong
// length — or a column index out of range — is an error from every entry
// point, never a panic or an index past the record's end. And on a record
// of the right length every way of decoding agrees with DecodeInto: the
// subset first and the remaining columns after it (the slots in between
// untouched), the whole record over a partly decoded row (what keeps a thin
// row, DESIGN.md §12), column by column, with and without a memo, cold and
// warm. The seed corpus is testdata/fuzz/FuzzRowCodec.
func FuzzRowCodec(f *testing.F) {
	rc, err := NewRowCodec(mixedCols())
	if err != nil {
		f.Fatal(err)
	}
	n := len(mixedCols())
	stale := expr.Value{Kind: 0xEE, I: -1, S: "stale"}
	f.Fuzz(func(t *testing.T, rec []byte, mask uint8, extra int16) {
		var need, rest []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				need = append(need, i)
			} else {
				rest = append(rest, i)
			}
		}
		dirty := func() expr.Row {
			row := make(expr.Row, n)
			for i := range row {
				row[i] = stale
			}
			return row
		}
		want := dirty()
		err := rc.DecodeInto(rec, want)
		if (err == nil) != (len(rec) == rc.Width()) {
			t.Fatalf("DecodeInto of %d bytes (width %d): %v", len(rec), rc.Width(), err)
		}
		var memo DecodeMemo
		if err != nil {
			if _, err := rc.Decode(rec); err == nil {
				t.Fatal("Decode accepted the record DecodeInto rejected")
			}
			if rc.DecodeIntoMemo(rec, dirty(), &memo) == nil || rc.DecodeCols(rec, dirty(), need, &memo) == nil ||
				rc.DecodeCols(rec, dirty(), rest, nil) == nil {
				t.Fatal("DecodeIntoMemo or DecodeCols accepted the record DecodeInto rejected")
			}
			for i := -1; i <= n; i++ {
				if _, err := rc.DecodeCol(rec, i); err == nil {
					t.Fatalf("DecodeCol(%d) accepted the record DecodeInto rejected", i)
				}
				if fld, ok := rc.IntField(i); ok {
					if _, _, ok := fld.Read(rec); ok {
						t.Fatalf("IntField(%d).Read accepted the record DecodeInto rejected", i)
					}
				}
			}
			return
		}
		same := func(what string, got expr.Row) {
			t.Helper()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, mask %05b: column %d is %#v, DecodeInto has %#v", what, mask, i, got[i], want[i])
				}
			}
		}
		for pass, m := range []*DecodeMemo{nil, &memo, &memo} { // no memo, a cold one, a warm one
			thin := dirty()
			if err := rc.DecodeCols(rec, thin, need, m); err != nil {
				t.Fatal(err)
			}
			for _, i := range need {
				if thin[i] != want[i] {
					t.Fatalf("pass %d, mask %05b: needed column %d is %#v, DecodeInto has %#v", pass, mask, i, thin[i], want[i])
				}
			}
			for _, i := range rest {
				if thin[i] != stale {
					t.Fatalf("pass %d, mask %05b: DecodeCols wrote column %d, which it was not asked for", pass, mask, i)
				}
			}
			whole := append(expr.Row(nil), thin...)
			if err := rc.DecodeCols(rec, thin, rest, m); err != nil {
				t.Fatal(err)
			}
			same("the subset, then the rest", thin)
			if err := rc.DecodeIntoMemo(rec, whole, m); err != nil {
				t.Fatal(err)
			}
			same("the subset, then the whole record over it", whole)
		}
		for i := range want {
			if v, err := rc.DecodeCol(rec, i); err != nil || v != want[i] {
				t.Fatalf("DecodeCol(%d) = %#v, %v; DecodeInto has %#v", i, v, err, want[i])
			}
			// An int or bool column read in place is the decoded value's
			// integer, with NULL apart (the sweep memo's key, DESIGN.md §12).
			fld, ok := rc.IntField(i)
			if isInt := mixedCols()[i].Type != expr.TString; ok != isInt {
				t.Fatalf("IntField(%d) ok=%v for a %v column", i, ok, mixedCols()[i].Type)
			}
			if !ok {
				continue
			}
			if v, null, ok := fld.Read(rec); !ok || null != want[i].IsNull() || v != want[i].I {
				t.Fatalf("IntField(%d).Read = %d, null %v, ok %v; DecodeInto has %#v", i, v, null, ok, want[i])
			}
		}
		if _, ok := rc.IntField(int(extra)); ok && (extra < 0 || int(extra) >= n) {
			t.Fatalf("IntField(%d) of %d columns accepted", extra, n)
		}
		if got, err := rc.Decode(rec); err != nil {
			t.Fatal(err)
		} else {
			same("Decode", got)
		}
		// One more column: decoded like any other when it exists, an error
		// that leaves no trace when it does not.
		row := dirty()
		err = rc.DecodeCols(rec, row, []int{int(extra)}, &memo)
		if inRange := extra >= 0 && int(extra) < n; inRange != (err == nil) || (inRange && row[extra] != want[extra]) {
			t.Fatalf("DecodeCols with column %d of %d: %v, %#v", extra, n, err, row)
		}
		if _, err := rc.DecodeCol(rec, int(extra)); (extra >= 0 && int(extra) < n) != (err == nil) {
			t.Fatalf("DecodeCol(%d) of %d columns: %v", extra, n, err)
		}
		if rc.DecodeCols(rec, row[:n-1], need, nil) == nil {
			t.Fatal("DecodeCols accepted a row one slot short")
		}
	})
}

// FuzzColTest holds the record test to its reference on arbitrary record
// bytes, any column index (int, bool and string columns of mixedCols, and
// out of range), any operator byte (unknown ones included) and a constant of
// every kind — NULL, int, string, bool: Test is op.Apply(DecodeCol(rec, col),
// val) under WHERE semantics, NULL and false both rejecting, and it fails
// exactly where DecodeCol fails, with the same error. The seed corpus is
// testdata/fuzz/FuzzColTest.
func FuzzColTest(f *testing.F) {
	rc, err := NewRowCodec(mixedCols())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, rec []byte, col int16, op, kind uint8, i int64, s string) {
		val := []expr.Value{expr.Null, expr.I(i), expr.S(s), expr.B(i != 0)}[kind%4]
		ct := ColTest{Col: int(col), Op: expr.CmpOp(op % 8), Val: val}
		got, gotErr := rc.Test(rec, ct)
		v, err := rc.DecodeCol(rec, ct.Col)
		if (gotErr == nil) != (err == nil) || (err != nil && gotErr.Error() != err.Error()) {
			t.Fatalf("Test(%+v) on %d bytes: error %v, DecodeCol's %v", ct, len(rec), gotErr, err)
		}
		if err != nil {
			return
		}
		holds, known := ct.Op.Apply(v, val).Bool()
		if want := known && holds; got != want {
			t.Fatalf("Test(%+v) = %v, the reference %v (column value %#v)", ct, got, want, v)
		}
	})
}
