package xsdtypes

import (
	"math"
	"testing"
)

func TestGregorianOrdering(t *testing.T) {
	ym := MustLookup("gYearMonth")
	a, _ := ym.Parse("1999-05")
	b, _ := ym.Parse("1999-06")
	if c, _ := Compare(a, b); c != -1 {
		t.Error("gYearMonth ordering")
	}
	gm := MustLookup("gMonth")
	m1, _ := gm.Parse("--05")
	m2, _ := gm.Parse("--11")
	if c, _ := Compare(m1, m2); c != -1 {
		t.Error("gMonth ordering")
	}
	gd := MustLookup("gDay")
	d1, _ := gd.Parse("---02")
	d2, _ := gd.Parse("---28")
	if c, _ := Compare(d1, d2); c != -1 {
		t.Error("gDay ordering")
	}
}

func TestNegativeYearOrdering(t *testing.T) {
	d := MustLookup("date")
	bc, _ := d.Parse("-0045-03-15") // Ides of March, 44 BC in XSD counting
	ad, _ := d.Parse("0045-03-15")
	if c, _ := Compare(bc, ad); c != -1 {
		t.Error("BC dates should precede AD dates")
	}
	bc2, _ := d.Parse("-0100-01-01")
	if c, _ := Compare(bc2, bc); c != -1 {
		t.Error("earlier BC year should precede later")
	}
}

func TestFloat32Precision(t *testing.T) {
	f := MustLookup("float")
	v, err := f.Parse("3.4028235e38") // max float32
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(v.Float(), 1) {
		t.Error("max float32 should parse finite")
	}
	if _, err := f.Parse("3.5e38"); err == nil {
		t.Error("beyond float32 range should fail strconv(32)")
	}
	d := MustLookup("double")
	if _, err := d.Parse("3.5e38"); err != nil {
		t.Errorf("double accepts it: %v", err)
	}
}

func TestFloatSpecialEquality(t *testing.T) {
	d := MustLookup("double")
	nan1, _ := d.Parse("NaN")
	nan2, _ := d.Parse("NaN")
	if !nan1.Equal(nan2) {
		t.Error("NaN equals NaN in the XSD value space")
	}
	inf, _ := d.Parse("INF")
	ninf, _ := d.Parse("-INF")
	if inf.Equal(ninf) {
		t.Error("INF != -INF")
	}
	if c, _ := Compare(ninf, inf); c != -1 {
		t.Error("-INF < INF")
	}
	if _, err := Compare(nan1, inf); err == nil {
		t.Error("NaN is unordered")
	}
}

func TestDurationComponents(t *testing.T) {
	b := MustLookup("duration")
	v, err := b.Parse("P2Y6M5DT12H35M30.5S")
	if err != nil {
		t.Fatal(err)
	}
	if v.Duration().Months != 30 {
		t.Errorf("months: %d", v.Duration().Months)
	}
	wantSecs := int64(5*86400 + 12*3600 + 35*60 + 30)
	if v.Duration().Secs != wantSecs || v.Duration().Nanos != 500_000_000 {
		t.Errorf("secs: %d.%d", v.Duration().Secs, v.Duration().Nanos)
	}
	// Canonical form round-trips.
	v2, err := b.Parse(v.Duration().String())
	if err != nil || !v.Equal(v2) {
		t.Errorf("duration canonical %q: %v", v.Duration().String(), err)
	}
	zero, _ := b.Parse("PT0S")
	if zero.Duration().String() != "PT0S" {
		t.Errorf("zero duration canonical: %q", zero.Duration().String())
	}
}

func TestNegativeDuration(t *testing.T) {
	b := MustLookup("duration")
	neg, _ := b.Parse("-P1D")
	pos, _ := b.Parse("P1D")
	if c, _ := Compare(neg, pos); c != -1 {
		t.Error("-P1D < P1D")
	}
	if neg.Duration().String() != "-P1D" {
		t.Errorf("canonical: %q", neg.Duration().String())
	}
}

func TestListValueStringAndLength(t *testing.T) {
	b := MustLookup("NMTOKENS")
	v, _ := b.Parse("  a  b\tc ")
	if v.String() != "a b c" {
		t.Errorf("list canonical: %q", v.String())
	}
	if n, ok := valueLength(&v); !ok || n != 3 {
		t.Errorf("list length: %d %v", n, ok)
	}
}

func TestBase64Canonical(t *testing.T) {
	b := MustLookup("base64Binary")
	v, err := b.Parse("aGVs bG8=") // internal space is legal lexical
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "aGVsbG8=" {
		t.Errorf("canonical: %q", v.String())
	}
}

func TestTokenRejectsNothing(t *testing.T) {
	// token collapses arbitrarily bad whitespace but never errors.
	b := MustLookup("token")
	v, err := b.Parse(" \t such \n mess \r ")
	if err != nil || v.Str != "such mess" {
		t.Errorf("token: %q, %v", v.Str, err)
	}
}

func TestStringCompare(t *testing.T) {
	a := Value{Kind: VString, Str: "apple"}
	b := Value{Kind: VString, Str: "banana"}
	if c, err := Compare(a, b); err != nil || c != -1 {
		t.Errorf("string compare: %d, %v", c, err)
	}
}

func TestValueEqualityAcrossKinds(t *testing.T) {
	s := Value{Kind: VString, Str: "1"}
	d := DecimalValue(MustDecimal("1"))
	if s.Equal(d) {
		t.Error("cross-kind values must not be equal")
	}
}

func TestLeapSecondsNotSupported(t *testing.T) {
	// XSD 1.0 excludes second 60.
	reject(t, "time", "23:59:60")
}

func TestDateTimeTimezoneRange(t *testing.T) {
	accept(t, "dateTime", "2000-01-01T00:00:00+14:00")
	reject(t, "dateTime", "2000-01-01T00:00:00+15:00")
	reject(t, "dateTime", "2000-01-01T00:00:00+14:30")
}
