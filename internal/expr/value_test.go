package expr

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructors(t *testing.T) {
	if v := I(42); v.Kind != TInt || v.I != 42 {
		t.Fatalf("I(42) = %+v", v)
	}
	if v := S("x"); v.Kind != TString || v.S != "x" {
		t.Fatalf("S(x) = %+v", v)
	}
	if v := B(true); v.Kind != TBool || v.I != 1 {
		t.Fatalf("B(true) = %+v", v)
	}
	if v := B(false); v.I != 0 {
		t.Fatalf("B(false) = %+v", v)
	}
	if !Null.IsNull() || Null.Kind != TNull {
		t.Fatalf("Null = %+v", Null)
	}
	var zero Value
	if !zero.IsNull() {
		t.Fatal("zero Value should be NULL")
	}
}

func TestBool(t *testing.T) {
	if b, ok := B(true).Bool(); !ok || !b {
		t.Fatal("B(true).Bool()")
	}
	if b, ok := B(false).Bool(); !ok || b {
		t.Fatal("B(false).Bool()")
	}
	if _, ok := Null.Bool(); ok {
		t.Fatal("Null.Bool() should be unknown")
	}
	if _, ok := I(1).Bool(); ok {
		t.Fatal("int is not a boolean")
	}
}

func TestCompareInts(t *testing.T) {
	cases := []struct {
		a, b int64
		want int
	}{
		{1, 2, -1}, {2, 1, 1}, {5, 5, 0},
		{math.MinInt64, math.MaxInt64, -1},
	}
	for _, c := range cases {
		got := I(c.a).Compare(I(c.b))
		if sign(got) != c.want {
			t.Errorf("Compare(%d,%d) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestCompareStrings(t *testing.T) {
	if S("a").Compare(S("b")) >= 0 {
		t.Fatal("a < b")
	}
	if S("b").Compare(S("a")) <= 0 {
		t.Fatal("b > a")
	}
	if !S("a").Equal(S("a")) {
		t.Fatal("a == a")
	}
}

func TestCompareMixedTypesTotal(t *testing.T) {
	// Mixed-type comparisons must be antisymmetric so sorting is total.
	vals := []Value{Null, I(1), S("x"), B(true)}
	for _, a := range vals {
		for _, b := range vals {
			if sign(a.Compare(b)) != -sign(b.Compare(a)) {
				t.Errorf("Compare not antisymmetric for %v,%v", a, b)
			}
		}
	}
}

func TestCompareAntisymmetricQuick(t *testing.T) {
	f := func(a, b int64) bool {
		return sign(I(a).Compare(I(b))) == -sign(I(b).Compare(I(a)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareTransitiveQuick(t *testing.T) {
	f := func(a, b, c int64) bool {
		x, y, z := I(a), I(b), I(c)
		if x.Compare(y) <= 0 && y.Compare(z) <= 0 {
			return x.Compare(z) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashEqualValuesQuick(t *testing.T) {
	f := func(a int64) bool { return I(a).Hash() == I(a).Hash() }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(s string) bool { return S(s).Hash() == S(s).Hash() }
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashDistinguishesKinds(t *testing.T) {
	if I(1).Hash() == B(true).Hash() {
		t.Fatal("int 1 and bool true should hash differently")
	}
}

func TestAppendKeyInjectiveQuick(t *testing.T) {
	f := func(a, b int64, s, u string) bool {
		ka := I(a).AppendKey(S(s).AppendKey(nil))
		kb := I(b).AppendKey(S(u).AppendKey(nil))
		same := a == b && s == u
		return same == (string(ka) == string(kb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendKeySelfDelimiting(t *testing.T) {
	// ("ab","c") must not collide with ("a","bc").
	k1 := S("c").AppendKey(S("ab").AppendKey(nil))
	k2 := S("bc").AppendKey(S("a").AppendKey(nil))
	if string(k1) == string(k2) {
		t.Fatal("AppendKey is not self-delimiting")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null, "7": I(7), `"hi"`: S("hi"), "true": B(true), "false": B(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%+v) = %q, want %q", v, got, want)
		}
	}
}

func TestTypeString(t *testing.T) {
	for ty, want := range map[Type]string{TNull: "null", TInt: "int", TString: "string", TBool: "bool"} {
		if ty.String() != want {
			t.Errorf("Type(%d).String() = %q want %q", ty, ty.String(), want)
		}
	}
}

func TestRowClone(t *testing.T) {
	r := Row{I(1), I(2)}
	c := r.Clone()
	c[0] = I(9)
	if r[0].I != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestCmpOpApply(t *testing.T) {
	type tc struct {
		op   CmpOp
		a, b int64
		want bool
	}
	cases := []tc{
		{OpEQ, 1, 1, true}, {OpEQ, 1, 2, false},
		{OpNE, 1, 2, true}, {OpNE, 1, 1, false},
		{OpLT, 1, 2, true}, {OpLT, 2, 2, false},
		{OpLE, 2, 2, true}, {OpLE, 3, 2, false},
		{OpGT, 3, 2, true}, {OpGT, 2, 2, false},
		{OpGE, 2, 2, true}, {OpGE, 1, 2, false},
	}
	for _, c := range cases {
		got, ok := c.op.Apply(I(c.a), I(c.b)).Bool()
		if !ok || got != c.want {
			t.Errorf("%d %s %d = %v (known=%v), want %v", c.a, c.op, c.b, got, ok, c.want)
		}
	}
}

func TestCmpOpNullSemantics(t *testing.T) {
	for _, op := range []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE} {
		if !op.Apply(Null, I(1)).IsNull() || !op.Apply(I(1), Null).IsNull() {
			t.Errorf("op %s should yield NULL on NULL operand", op)
		}
	}
}

func TestCmpOpFlipQuick(t *testing.T) {
	ops := []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
	f := func(a, b int64, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		x, y := I(a), I(b)
		return op.Apply(x, y).Equal(op.Flip().Apply(y, x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCmpOpString(t *testing.T) {
	want := map[CmpOp]string{OpEQ: "=", OpNE: "<>", OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("CmpOp(%d).String() = %q want %q", op, op.String(), s)
		}
	}
}
