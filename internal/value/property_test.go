package value

import (
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

// Tri obeys Kleene-algebra laws.
func TestTriKleeneLaws(t *testing.T) {
	tris := []Tri{False, Unknown, True}
	for _, a := range tris {
		if a.Not().Not() != a {
			t.Errorf("double negation broken for %v", a)
		}
		for _, b := range tris {
			// De Morgan.
			if a.And(b).Not() != a.Not().Or(b.Not()) {
				t.Errorf("De Morgan (and) broken for %v,%v", a, b)
			}
			if a.Or(b).Not() != a.Not().And(b.Not()) {
				t.Errorf("De Morgan (or) broken for %v,%v", a, b)
			}
			for _, c := range tris {
				if a.And(b.And(c)) != a.And(b).And(c) {
					t.Errorf("and not associative")
				}
				if a.Or(b.Or(c)) != a.Or(b).Or(c) {
					t.Errorf("or not associative")
				}
				// Distribution.
				if a.And(b.Or(c)) != a.And(b).Or(a.And(c)) {
					t.Errorf("distribution broken")
				}
			}
		}
	}
}

// randomValue generates an arbitrary scalar for round-trip properties.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(8) {
	case 0:
		return Null
	case 1:
		return NewInt(r.Int63() - (1 << 62))
	case 2:
		return NewNumber(r.NormFloat64() * 1e6)
	case 3:
		b := make([]byte, r.Intn(300))
		r.Read(b)
		return NewString(string(b))
	case 4:
		return NewBool(r.Intn(2) == 0)
	case 5:
		return NewDate(int64(r.Intn(100000) - 20000))
	case 6:
		return NewSymbolic([]string{"A", "B", "C"}[r.Intn(3)], r.Intn(3))
	default:
		return NewSurrogate(Surrogate(r.Uint64() >> 1))
	}
}

// Property: encode/decode round-trips arbitrary rows, and RowLen predicts
// the encoded length exactly.
func TestRowCodecProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 500; iter++ {
		n := r.Intn(12)
		row := make([]Value, n)
		for i := range row {
			row[i] = randomValue(r)
		}
		buf := AppendRow(nil, row)
		if RowLen(row) != len(buf) {
			t.Fatalf("iter %d: RowLen %d, encoding is %d bytes", iter, RowLen(row), len(buf))
		}
		got, rest, err := DecodeRow(nil, buf)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if len(rest) != 0 {
			t.Fatalf("iter %d: %d trailing bytes", iter, len(rest))
		}
		if len(got) != len(row) {
			t.Fatalf("iter %d: %d fields, want %d", iter, len(got), len(row))
		}
		for i := range row {
			if !got[i].Equal(row[i]) || got[i].Kind() != row[i].Kind() {
				t.Fatalf("iter %d field %d: %v (%v) != %v (%v)", iter, i, got[i], got[i].Kind(), row[i], row[i].Kind())
			}
		}
	}
}

// Property: Cmp.Apply is consistent with Compare on same-kind values.
func TestCmpConsistentWithCompare(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := NewInt(a), NewInt(b)
		n, err := Compare(va, vb)
		if err != nil {
			return false
		}
		lt, _ := CmpLT.Apply(va, vb)
		eq, _ := CmpEQ.Apply(va, vb)
		gt, _ := CmpGT.Apply(va, vb)
		return (n < 0) == lt.IsTrue() && (n == 0) == eq.IsTrue() && (n > 0) == gt.IsTrue()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: globMatch agrees with the equivalent regexp.
func TestGlobMatchesRegexp(t *testing.T) {
	alphabet := []rune{'a', 'b', '*', '?'}
	r := rand.New(rand.NewSource(5))
	randStr := func(maxLen int, runes []rune) string {
		n := r.Intn(maxLen)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteRune(runes[r.Intn(len(runes))])
		}
		return b.String()
	}
	for iter := 0; iter < 2000; iter++ {
		pat := randStr(8, alphabet)
		s := randStr(10, []rune{'a', 'b'})
		// Translate the glob to an anchored regexp.
		var re strings.Builder
		re.WriteString("^")
		for _, c := range pat {
			switch c {
			case '*':
				re.WriteString(".*")
			case '?':
				re.WriteString(".")
			default:
				re.WriteString(regexp.QuoteMeta(string(c)))
			}
		}
		re.WriteString("$")
		want := regexp.MustCompile(re.String()).MatchString(s)
		if got := globMatch(pat, s); got != want {
			t.Fatalf("globMatch(%q, %q) = %v, regexp says %v", pat, s, got, want)
		}
	}
}

// Property: key encoding order agrees with SortLess for arbitrary value
// pairs of the same kind.
func TestKeyOrderMatchesSortLess(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for iter := 0; iter < 3000; iter++ {
		a, b := randomValue(r), randomValue(r)
		// Only same-kind (or numeric) pairs have defined relative order.
		same := a.Kind() == b.Kind() ||
			(isNumericKind(a.Kind()) && isNumericKind(b.Kind()))
		if !same || a.IsNull() || b.IsNull() {
			continue
		}
		ka := AppendKey(nil, a)
		kb := AppendKey(nil, b)
		keyLess := string(ka) < string(kb)
		sortLess := SortLess(a, b)
		if keyLess != sortLess {
			t.Fatalf("order disagreement for %v (%v) vs %v (%v): key %v, SortLess %v",
				a, a.Kind(), b, b.Kind(), keyLess, sortLess)
		}
	}
}

func isNumericKind(k Kind) bool { return k == KindInt || k == KindNumber }

// quick.Value-driven encode round trip for strings with arbitrary bytes.
func TestStringEncodeQuick(t *testing.T) {
	f := func(s string) bool {
		v := NewString(s)
		buf := Append(nil, v)
		got, rest, err := Decode(buf)
		return err == nil && len(rest) == 0 && got.Kind() == KindString && got.Str() == s
	}
	cfg := &quick.Config{MaxCount: 300, Values: func(vals []reflect.Value, r *rand.Rand) {
		b := make([]byte, r.Intn(200))
		r.Read(b)
		vals[0] = reflect.ValueOf(string(b))
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
