package catalog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"predplace/internal/expr"
	"predplace/internal/storage"
)

// benchCols is the benchmark schema: seven integers and the 36-byte filler,
// 100 bytes a tuple.
func benchCols() []Column {
	var cols []Column
	for _, n := range []string{"a1", "a10", "a100", "ua1", "u10", "u20", "u100"} {
		cols = append(cols, Column{Name: n, Type: expr.TInt})
	}
	return append(cols, Column{Name: "str", Type: expr.TString, FixedLen: 36})
}

// mixedCols exercises every decode branch: integers, booleans, two strings.
func mixedCols() []Column {
	return []Column{
		{Name: "k", Type: expr.TInt}, {Name: "flag", Type: expr.TBool},
		{Name: "name", Type: expr.TString, FixedLen: 12}, {Name: "n", Type: expr.TInt},
		{Name: "tag", Type: expr.TString, FixedLen: 5},
	}
}

// mixedRow is row i of a table over mixedCols: NULLs in every column, runs
// of repeated strings (memo hits) between distinct ones (memo misses), a
// string with an embedded NUL and an empty one.
func mixedRow(i int) expr.Row {
	row := expr.Row{expr.I(int64(i) - 3), expr.B(i%3 == 0), expr.S(fmt.Sprint("name", i/4)),
		expr.I(int64(i) << 40), expr.S([]string{"", "a\x00b", "tag", "tag", "t"}[i%5])}
	if i%7 < len(row) {
		row[i%7] = expr.Null
	}
	return row
}

// referenceEncode is the parent commit's Encode, kept as the byte-level
// reference: three allocations per row, the same record.
func referenceEncode(rc *RowCodec, row expr.Row) []byte {
	out := make([]byte, 0, rc.width)
	for i, c := range rc.cols {
		v := row[i]
		n := 8
		if c.Type == expr.TString {
			n = c.FixedLen
		}
		if v.IsNull() {
			out = append(out, 0)
			out = append(out, make([]byte, n)...)
			continue
		}
		out = append(out, 1)
		buf := make([]byte, n)
		if c.Type == expr.TString {
			copy(buf, v.S)
		} else {
			binary.LittleEndian.PutUint64(buf, uint64(v.I))
		}
		out = append(out, buf...)
	}
	return out
}

func TestEncodeMatchesReference(t *testing.T) {
	rc, err := NewRowCodec(mixedCols())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		row := mixedRow(i)
		got, err := rc.Encode(row)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceEncode(rc, row); !bytes.Equal(got, want) {
			t.Fatalf("row %d %v:\n got %x\nwant %x", i, row, got, want)
		}
	}
	row := mixedRow(1)
	if n := testing.AllocsPerRun(100, func() { rc.Encode(row) }); n != 1 {
		t.Fatalf("Encode allocates %v times per row, want the record only", n)
	}
}

// TestDecodeMemoMatchesDecode: the layout-compiled decode with and without
// a memo, into dirty rows, yields what was encoded — across memo hits and
// misses, NULLs after values and values after NULLs in the same slot.
func TestDecodeMemoMatchesDecode(t *testing.T) {
	rc, err := NewRowCodec(mixedCols())
	if err != nil {
		t.Fatal(err)
	}
	var memo DecodeMemo
	dirty := make(expr.Row, len(mixedCols()))
	for i := 0; i < 200; i++ {
		want := mixedRow(i)
		rec, err := rc.Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := rc.Decode(rec)
		if err != nil {
			t.Fatal(err)
		}
		for j := range dirty {
			dirty[j] = expr.Value{Kind: 0xEE, I: -1, S: "stale"}
		}
		if err := rc.DecodeIntoMemo(rec, dirty, &memo); err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if plain[j] != want[j] || dirty[j] != want[j] {
				t.Fatalf("row %d col %d: Decode %#v, DecodeIntoMemo %#v, want %#v", i, j, plain[j], dirty[j], want[j])
			}
		}
	}
	if err := rc.DecodeIntoMemo(make([]byte, rc.Width()), dirty[:2], &memo); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

// TestDecodeColShortRecord: every proper prefix of a record (and one byte
// more) is rejected with the record-length error DecodeIntoMemo returns, for
// every column — a truncated record must not index past its end.
func TestDecodeColShortRecord(t *testing.T) {
	rc, err := NewRowCodec(mixedCols())
	if err != nil {
		t.Fatal(err)
	}
	row := mixedRow(1)
	rec, err := rc.Encode(row)
	if err != nil {
		t.Fatal(err)
	}
	for col := range row {
		for n := 0; n <= len(rec)+1; n++ {
			short := append(append([]byte(nil), rec...), 0)[:n]
			v, err := rc.DecodeCol(short, col)
			if n == len(rec) {
				if err != nil || v != row[col] {
					t.Fatalf("col %d: %#v, %v; want %#v", col, v, err, row[col])
				}
				continue
			}
			want := rc.DecodeIntoMemo(short, make(expr.Row, len(row)), nil)
			if err == nil || want == nil || err.Error() != want.Error() || !strings.Contains(err.Error(), "record length") {
				t.Fatalf("col %d, %d of %d bytes: DecodeCol error %v, DecodeIntoMemo error %v", col, n, len(rec), err, want)
			}
		}
	}
}

// TestColTestAllocFree: the record test reads an int or a string field in
// place, so a scan's cheap filter costs no allocation per record — over
// NULL fields, the padded string with an embedded NUL, and every operator.
func TestColTestAllocFree(t *testing.T) {
	rc, err := NewRowCodec(mixedCols())
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]byte, 200)
	for i := range recs {
		if recs[i], err = rc.Encode(mixedRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ct := range []ColTest{{Col: 0, Val: expr.I(40)}, {Col: 3, Val: expr.I(7 << 40)},
		{Col: 2, Val: expr.S("name20")}, {Col: 4, Val: expr.S("a\x00b")}} {
		kept := 0
		allocs := testing.AllocsPerRun(20, func() {
			kept = 0
			for op := expr.OpEQ; op <= expr.OpGE; op++ {
				ct.Op = op
				for _, rec := range recs {
					if ok, err := rc.Test(rec, ct); err != nil {
						t.Fatal(err)
					} else if ok {
						kept++
					}
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%+v: %v allocations per %d tests, want none", ct, allocs, 6*len(recs))
		}
		if kept == 0 || kept == 6*len(recs) {
			t.Fatalf("%+v: %d of %d tests hold, so the comparison is not exercised", ct, kept, 6*len(recs))
		}
	}
}

var decodeSink expr.Value

func BenchmarkDecodeIntoMemo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, schema := range []struct {
		name string
		cols []Column
		row  func(i int) expr.Row
	}{
		{"benchmark", benchCols(), func(i int) expr.Row {
			row := make(expr.Row, 8)
			for j := range row[:7] {
				row[j] = expr.I(rng.Int63n(30000))
			}
			row[7] = expr.S(strings.Repeat("x", 36))
			return row
		}},
		{"nulls-bools-strings", mixedCols(), func(i int) expr.Row {
			row := mixedRow(i)
			row[2] = expr.S(fmt.Sprint("name", i)) // every record a memo miss
			return row
		}},
	} {
		b.Run(schema.name, func(b *testing.B) {
			rc, err := NewRowCodec(schema.cols)
			if err != nil {
				b.Fatal(err)
			}
			recs := make([][]byte, 1024)
			for i := range recs {
				if recs[i], err = rc.Encode(schema.row(i)); err != nil {
					b.Fatal(err)
				}
			}
			var memo DecodeMemo
			row := make(expr.Row, len(schema.cols))
			b.SetBytes(int64(rc.Width()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rc.DecodeIntoMemo(recs[i%len(recs)], row, &memo); err != nil {
					b.Fatal(err)
				}
			}
			decodeSink = row[0]
		})
	}
}

// TestTableIn holds Table.In to SQL's three-valued x IN (set) and NOT IN:
// a match is TRUE (NOT IN FALSE); no match beside a NULL member, or a NULL
// x over a non-empty set, is NULL either way; the empty set is FALSE (NOT
// IN TRUE), whatever x is.
func TestTableIn(t *testing.T) {
	cols := []Column{{Name: "v", Type: expr.TInt}, {Name: "k", Type: expr.TInt}}
	codec, err := NewRowCodec(cols)
	if err != nil {
		t.Fatal(err)
	}
	tab := &Table{Name: "s", Columns: cols, Codec: codec, TupleBytes: codec.Width(),
		Heap: storage.NewHeapFile(storage.NewBufferPool(storage.NewDisk(nil), 4))}
	for _, r := range []expr.Row{
		{expr.I(1), expr.I(0)}, {expr.Null, expr.I(0)}, // k = 0: {1, NULL}
		{expr.I(2), expr.I(1)}, // k = 1: {2}
	} {
		rec, err := codec.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.Heap.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	null, tru, fal := expr.Null, expr.B(true), expr.B(false)
	for _, c := range []struct {
		name    string
		x       expr.Value
		k       int64
		in, not expr.Value
	}{
		{"match beside a NULL member", expr.I(1), 0, tru, fal},
		{"no match beside a NULL member", expr.I(5), 0, null, null},
		{"match", expr.I(2), 1, tru, fal},
		{"no match", expr.I(5), 1, fal, tru},
		{"NULL operand", null, 1, null, null},
		{"NULL operand beside a NULL member", null, 0, null, null},
		{"empty set", expr.I(1), 9, fal, tru},
		{"NULL operand over the empty set", null, 9, fal, tru},
	} {
		tests := []ColTest{{Col: 1, Op: expr.OpEQ, Val: expr.I(c.k)}}
		for _, not := range []bool{false, true} {
			want := c.in
			if not {
				want = c.not
			}
			got, err := tab.In(nil, c.x, tests, 0, not)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || got.IsNull() != want.IsNull() {
				t.Errorf("%s (not=%v): got %v, want %v", c.name, not, got, want)
			}
		}
	}
}
