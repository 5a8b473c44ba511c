package xsdtypes

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// randDecimal builds an arbitrary decimal lexical form from raw bytes.
func randDecimal(r *rand.Rand) string {
	sign := [3]string{"", "+", "-"}[r.Intn(3)]
	intLen := r.Intn(20)
	fracLen := r.Intn(20)
	if intLen == 0 && fracLen == 0 {
		intLen = 1
	}
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + r.Intn(10))
		}
		return string(b)
	}
	s := sign + digits(intLen)
	if fracLen > 0 {
		s += "." + digits(fracLen)
	}
	return s
}

// TestQuickDecimalRoundTrip: parse -> canonical -> parse is the identity
// in the value space.
func TestQuickDecimalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		lex := randDecimal(r)
		d, err := ParseDecimal(lex)
		if err != nil {
			return false
		}
		d2, err := ParseDecimal(d.String())
		if err != nil {
			return false
		}
		return d.Cmp(d2) == 0 && d.String() == d2.String()
	}
	for i := 0; i < 2000; i++ {
		if !f() {
			t.Fatalf("round trip failed (iteration %d)", i)
		}
	}
}

// TestQuickDecimalOrderTotal: Cmp is antisymmetric and transitive on
// random triples.
func TestQuickDecimalOrderTotal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a := MustDecimal(randDecimal(r))
		b := MustDecimal(randDecimal(r))
		c := MustDecimal(randDecimal(r))
		if a.Cmp(b) != -b.Cmp(a) {
			t.Fatalf("antisymmetry: %s vs %s", a, b)
		}
		if a.Cmp(b) <= 0 && b.Cmp(c) <= 0 && a.Cmp(c) > 0 {
			t.Fatalf("transitivity: %s <= %s <= %s but %s > %s", a, b, c, a, c)
		}
		if a.Cmp(a) != 0 {
			t.Fatalf("reflexivity: %s", a)
		}
	}
}

// TestQuickDecimalAgainstFloat: for short decimals, ordering agrees with
// float64 arithmetic.
func TestQuickDecimalAgainstFloat(t *testing.T) {
	f := func(x, y int32) bool {
		a := DecimalFromInt64(int64(x))
		b := DecimalFromInt64(int64(y))
		want := 0
		if x < y {
			want = -1
		} else if x > y {
			want = 1
		}
		return a.Cmp(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInt64RoundTrip: DecimalFromInt64 -> Int64 is the identity.
func TestQuickInt64RoundTrip(t *testing.T) {
	f := func(v int64) bool {
		got, err := DecimalFromInt64(v).Int64()
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWhitespaceIdempotent: applying a whitespace mode twice equals
// applying it once.
func TestQuickWhitespaceIdempotent(t *testing.T) {
	f := func(raw []byte) bool {
		s := string(raw)
		if !utf8.ValidString(s) {
			return true // XML content is always valid UTF-8
		}
		for _, ws := range []WhiteSpace{WSPreserve, WSReplace, WSCollapse} {
			once := ApplyWhiteSpace(ws, s)
			if ApplyWhiteSpace(ws, once) != once {
				return false
			}
		}
		// Collapse of replace equals collapse.
		return ApplyWhiteSpace(WSCollapse, ApplyWhiteSpace(WSReplace, s)) == ApplyWhiteSpace(WSCollapse, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDateTimeRoundTrip: canonical form reparses equal for random
// valid dates.
func TestQuickDateTimeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	b := MustLookup("dateTime")
	for i := 0; i < 1500; i++ {
		year := 1 + r.Intn(4000)
		month := 1 + r.Intn(12)
		day := 1 + r.Intn(daysInMonth(year, month))
		lex := fmt.Sprintf("%04d-%02d-%02dT%02d:%02d:%02d", year, month, day, r.Intn(24), r.Intn(60), r.Intn(60))
		if r.Intn(2) == 0 {
			lex += "Z"
		}
		v1, err := b.Parse(lex)
		if err != nil {
			t.Fatalf("%s: %v", lex, err)
		}
		v2, err := b.Parse(v1.String())
		if err != nil {
			t.Fatalf("canonical %q: %v", v1.String(), err)
		}
		if !v1.Equal(v2) {
			t.Fatalf("%s -> %s not equal", lex, v1.String())
		}
	}
}

// TestQuickTimelineMonotonic: adding a day moves the timeline forward.
func TestQuickTimelineMonotonic(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	d := MustLookup("date")
	for i := 0; i < 1500; i++ {
		year := 1 + r.Intn(3000)
		month := 1 + r.Intn(12)
		day := 1 + r.Intn(daysInMonth(year, month)-1)
		a, _ := d.Parse(fmt.Sprintf("%04d-%02d-%02d", year, month, day))
		b, _ := d.Parse(fmt.Sprintf("%04d-%02d-%02d", year, month, day+1))
		if c, _ := Compare(a, b); c != -1 {
			t.Fatalf("%v should precede %v", a, b)
		}
	}
}

// TestQuickHexBinaryRoundTrip: bytes -> canonical hex -> bytes.
func TestQuickHexBinaryRoundTrip(t *testing.T) {
	b := MustLookup("hexBinary")
	f := func(data []byte) bool {
		v := BinaryValue(VHexBinary, data)
		parsed, err := b.Parse(v.String())
		return err == nil && parsed.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
