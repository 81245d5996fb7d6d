package value

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestTriTables(t *testing.T) {
	// Kleene truth tables.
	cases := []struct {
		a, b, and, or Tri
	}{
		{True, True, True, True},
		{True, False, False, True},
		{True, Unknown, Unknown, True},
		{False, False, False, False},
		{False, Unknown, False, Unknown},
		{Unknown, Unknown, Unknown, Unknown},
	}
	for _, c := range cases {
		if got := c.a.And(c.b); got != c.and {
			t.Errorf("%v AND %v = %v, want %v", c.a, c.b, got, c.and)
		}
		if got := c.b.And(c.a); got != c.and {
			t.Errorf("AND not commutative for %v,%v", c.a, c.b)
		}
		if got := c.a.Or(c.b); got != c.or {
			t.Errorf("%v OR %v = %v, want %v", c.a, c.b, got, c.or)
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("NOT table wrong")
	}
}

func TestCmpNullIsUnknown(t *testing.T) {
	for _, op := range []Cmp{CmpEQ, CmpNEQ, CmpLT, CmpLE, CmpGT, CmpGE} {
		got, err := op.Apply(Null, NewInt(1))
		if err != nil || got != Unknown {
			t.Errorf("NULL %v 1 = %v, %v; want unknown", op, got, err)
		}
		got, _ = op.Apply(NewInt(1), Null)
		if got != Unknown {
			t.Errorf("1 %v NULL = %v; want unknown", op, got)
		}
	}
}

func TestCmpMixedNumeric(t *testing.T) {
	got, err := CmpEQ.Apply(NewInt(3), NewNumber(3.0))
	if err != nil || got != True {
		t.Errorf("3 = 3.0 → %v, %v", got, err)
	}
	got, _ = CmpLT.Apply(NewInt(3), NewNumber(3.5))
	if got != True {
		t.Errorf("3 < 3.5 → %v", got)
	}
}

func TestCmpIncompatibleKinds(t *testing.T) {
	if _, err := CmpLT.Apply(NewInt(1), NewString("x")); err == nil {
		t.Error("integer < string did not error")
	}
	if _, err := CmpEQ.Apply(NewBool(true), NewString("t")); err == nil {
		t.Error("boolean = string did not error")
	}
}

func TestArithNullPropagates(t *testing.T) {
	for _, op := range []Arith{OpAdd, OpSub, OpMul, OpDiv} {
		v, err := op.Apply(Null, NewInt(2))
		if err != nil || !v.IsNull() {
			t.Errorf("NULL %v 2 = %v, %v", op, v, err)
		}
	}
}

func TestArithIntSemantics(t *testing.T) {
	v, _ := OpAdd.Apply(NewInt(2), NewInt(3))
	if v.Kind() != KindInt || v.Int() != 5 {
		t.Errorf("2+3 = %v (%v)", v, v.Kind())
	}
	// Division always yields a number.
	v, _ = OpDiv.Apply(NewInt(7), NewInt(2))
	if v.Kind() != KindNumber || v.Number() != 3.5 {
		t.Errorf("7/2 = %v (%v)", v, v.Kind())
	}
	if _, err := OpDiv.Apply(NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero did not error")
	}
}

func TestDateArith(t *testing.T) {
	d, _ := ParseDate("1988-06-01")
	d2, err := OpAdd.Apply(d, NewInt(30))
	if err != nil || d2.String() != "1988-07-01" {
		t.Errorf("date+30 = %v, %v", d2, err)
	}
	diff, err := OpSub.Apply(d2, d)
	if err != nil || diff.Int() != 30 {
		t.Errorf("date-date = %v, %v", diff, err)
	}
	if _, err := OpMul.Apply(d, NewInt(2)); err == nil {
		t.Error("date*2 did not error")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want Tri
	}{
		{"Quantum Chromodynamics", "Quantum*", True},
		{"Quantum", "Quantum", True},
		{"Quantum", "quantum", False},
		{"Algebra I", "Algebra ?", True},
		{"Algebra II", "Algebra ?", False},
		{"abc", "*b*", True},
		{"abc", "*d*", False},
		{"", "*", True},
		{"x", "", False},
	}
	for _, c := range cases {
		got, err := Like(NewString(c.s), NewString(c.p))
		if err != nil || got != c.want {
			t.Errorf("Like(%q,%q) = %v, %v; want %v", c.s, c.p, got, err, c.want)
		}
	}
	got, _ := Like(Null, NewString("x"))
	if got != Unknown {
		t.Error("Like(NULL, p) not unknown")
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	vals := []Value{
		Null,
		NewInt(0), NewInt(-5), NewInt(1 << 40),
		NewNumber(3.25), NewNumber(-0.5), NewNumber(math.MaxFloat64),
		NewString(""), NewString("hello"), NewString("with \x00 zero"),
		NewBool(true), NewBool(false),
		NewDate(6726),
		NewSymbolic("PHD", 3),
		NewSurrogate(42),
	}
	var buf []byte
	for _, v := range vals {
		buf = Append(buf, v)
	}
	rest := buf
	for i, want := range vals {
		var got Value
		var err error
		got, rest, err = Decode(rest)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !got.Equal(want) || got.Kind() != want.Kind() {
			t.Errorf("round trip %d: got %v (%v), want %v (%v)", i, got, got.Kind(), want, want.Kind())
		}
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes", len(rest))
	}
}

func TestEncodeRowRoundTrip(t *testing.T) {
	row := []Value{NewInt(1), Null, NewString("x"), NewSymbolic("BS", 0)}
	buf := AppendRow(nil, row)
	got, rest, err := DecodeRow(nil, buf)
	if err != nil || len(rest) != 0 || len(got) != len(row) {
		t.Fatalf("DecodeRow: %v %v %d", got, err, len(rest))
	}
	for i := range row {
		if !got[i].Equal(row[i]) {
			t.Errorf("field %d: %v != %v", i, got[i], row[i])
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("empty decode succeeded")
	}
	if _, _, err := Decode([]byte{99}); err == nil {
		t.Error("bad tag decode succeeded")
	}
	if _, _, err := Decode([]byte{byte(KindString), 200}); err == nil {
		t.Error("truncated string decode succeeded")
	}
}

// Property: the key encoding preserves order for comparable values.
func TestKeyEncodingOrderInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka := AppendKey(nil, NewInt(a))
		kb := AppendKey(nil, NewInt(b))
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		}
		return cmp == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyEncodingOrderFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := AppendKey(nil, NewNumber(a))
		kb := AppendKey(nil, NewNumber(b))
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		}
		return cmp == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyEncodingOrderStrings(t *testing.T) {
	f := func(a, b string) bool {
		ka := AppendKey(nil, NewString(a))
		kb := AppendKey(nil, NewString(b))
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		}
		return cmp == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyEncodingMixedNumerics(t *testing.T) {
	// Int and Number interleave correctly.
	ka := AppendKey(nil, NewInt(3))
	kb := AppendKey(nil, NewNumber(3.5))
	kc := AppendKey(nil, NewInt(4))
	if !(bytes.Compare(ka, kb) < 0 && bytes.Compare(kb, kc) < 0) {
		t.Error("int/number key interleaving broken")
	}
	// Equal int and float encode identically.
	if !bytes.Equal(AppendKey(nil, NewInt(7)), AppendKey(nil, NewNumber(7))) {
		t.Error("7 and 7.0 encode differently")
	}
}

func TestKeyEncodingNullFirst(t *testing.T) {
	null := AppendKey(nil, Null)
	for _, v := range []Value{NewInt(math.MinInt64), NewString(""), NewBool(false)} {
		if bytes.Compare(null, AppendKey(nil, v)) >= 0 {
			t.Errorf("NULL does not sort before %v", v)
		}
	}
}

func TestSurrogateKeyRoundTrip(t *testing.T) {
	k := AppendSurrogateKey(nil, 0xDEADBEEF)
	if got := SurrogateFromKey(k); got != 0xDEADBEEF {
		t.Errorf("surrogate round trip = %x", got)
	}
	// Order-preserving.
	a := AppendSurrogateKey(nil, 5)
	b := AppendSurrogateKey(nil, 6)
	if bytes.Compare(a, b) >= 0 {
		t.Error("surrogate keys out of order")
	}
}

func TestCompareSymbolicByOrdinal(t *testing.T) {
	bs := NewSymbolic("BS", 0)
	phd := NewSymbolic("PHD", 3)
	n, err := Compare(bs, phd)
	if err != nil || n >= 0 {
		t.Errorf("BS < PHD: %d, %v", n, err)
	}
	tri, _ := CmpLT.Apply(bs, phd)
	if tri != True {
		t.Error("BS < PHD not true")
	}
}

func TestSortLessTotalOrder(t *testing.T) {
	vals := []Value{Null, NewInt(1), NewNumber(2.5), NewString("a"), NewBool(true), NewDate(3)}
	for i, a := range vals {
		if SortLess(a, a) {
			t.Errorf("SortLess(%v,%v) reflexive", a, a)
		}
		for j, b := range vals {
			if i == j {
				continue
			}
			if SortLess(a, b) == SortLess(b, a) && !a.Equal(b) {
				t.Errorf("SortLess not antisymmetric for %v,%v", a, b)
			}
		}
	}
}

func TestValueKeyGrouping(t *testing.T) {
	if NewInt(3).Key() != NewNumber(3).Key() {
		t.Error("3 and 3.0 group apart")
	}
	if NewInt(3).Key() == NewString("3").Key() {
		t.Error("3 and \"3\" group together")
	}
	if Null.Key() != Null.Key() {
		t.Error("NULL grouping unstable")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "?"},
		{NewInt(42), "42"},
		{NewNumber(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{NewBool(false), "false"},
		{NewSymbolic("MS", 2), "MS"},
		{NewSurrogate(9), "#9"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}
