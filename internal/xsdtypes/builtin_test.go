package xsdtypes

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/contentmodel"
	"repro/internal/xsdregex"
)

// accept asserts that the named builtin accepts the lexical value.
func accept(t *testing.T, typeName, lexical string) Value {
	t.Helper()
	b := MustLookup(typeName)
	v, err := b.Parse(lexical)
	if err != nil {
		t.Errorf("%s should accept %q: %v", typeName, lexical, err)
	}
	return v
}

// reject asserts that the named builtin rejects the lexical value.
func reject(t *testing.T, typeName, lexical string) {
	t.Helper()
	b := MustLookup(typeName)
	if _, err := b.Parse(lexical); err == nil {
		t.Errorf("%s should reject %q", typeName, lexical)
	}
}

func TestAllBuiltinsRegistered(t *testing.T) {
	// The 19 primitives + 25 derived + anySimpleType = 45 names.
	want := []string{
		"anySimpleType",
		"string", "boolean", "decimal", "float", "double", "duration",
		"dateTime", "time", "date", "gYearMonth", "gYear", "gMonthDay",
		"gDay", "gMonth", "hexBinary", "base64Binary", "anyURI", "QName",
		"NOTATION",
		"normalizedString", "token", "language", "NMTOKEN", "NMTOKENS",
		"Name", "NCName", "ID", "IDREF", "IDREFS", "ENTITY", "ENTITIES",
		"integer", "nonPositiveInteger", "negativeInteger", "long", "int",
		"short", "byte", "nonNegativeInteger", "unsignedLong",
		"unsignedInt", "unsignedShort", "unsignedByte", "positiveInteger",
	}
	for _, n := range want {
		if _, ok := Lookup(n); !ok {
			t.Errorf("builtin %q missing", n)
		}
	}
	if got := len(Names()); got != len(want) {
		t.Errorf("registered %d builtins, want %d", got, len(want))
	}
}

func TestBooleans(t *testing.T) {
	for _, s := range []string{"true", "false", "1", "0", " true "} {
		accept(t, "boolean", s)
	}
	for _, s := range []string{"TRUE", "yes", "", "2"} {
		reject(t, "boolean", s)
	}
	if v := accept(t, "boolean", "1"); !v.Boolean() {
		t.Error("boolean 1 should be true")
	}
}

func TestDecimals(t *testing.T) {
	accept(t, "decimal", "148.95")
	accept(t, "decimal", "-0.5")
	accept(t, "decimal", "+007")
	accept(t, "decimal", ".5")
	accept(t, "decimal", "5.")
	reject(t, "decimal", "")
	reject(t, "decimal", ".")
	reject(t, "decimal", "1e5")
	reject(t, "decimal", "1,5")
	if v := accept(t, "decimal", "-00.50"); v.Decimal().String() != "-0.5" {
		t.Errorf("canonical: %s", v.Decimal())
	}
}

func TestDecimalOrdering(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1", "2", -1}, {"2", "1", 1}, {"1.0", "1", 0},
		{"-1", "1", -1}, {"-2", "-1", -1}, {"0", "-0", 0},
		{"10", "9", 1}, {"0.5", "0.49", 1}, {"123456789012345678901234567890", "123456789012345678901234567891", -1},
		{"0.1", "0.10", 0}, {"-0.5", "-0.4", -1},
	}
	for _, c := range cases {
		got := MustDecimal(c.a).Cmp(MustDecimal(c.b))
		if got != c.want {
			t.Errorf("Cmp(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIntegerTower(t *testing.T) {
	accept(t, "integer", "-42")
	reject(t, "integer", "1.0") // integer lexical space has no '.'
	reject(t, "integer", "1e3")

	accept(t, "positiveInteger", "1")
	reject(t, "positiveInteger", "0")
	reject(t, "positiveInteger", "-1")

	accept(t, "nonNegativeInteger", "0")
	reject(t, "nonNegativeInteger", "-1")

	accept(t, "negativeInteger", "-1")
	reject(t, "negativeInteger", "0")

	accept(t, "byte", "127")
	reject(t, "byte", "128")
	accept(t, "byte", "-128")
	reject(t, "byte", "-129")

	accept(t, "unsignedByte", "255")
	reject(t, "unsignedByte", "256")
	reject(t, "unsignedByte", "-1")

	accept(t, "long", "9223372036854775807")
	reject(t, "long", "9223372036854775808")
	accept(t, "long", "-9223372036854775808")
	reject(t, "long", "-9223372036854775809")

	accept(t, "unsignedLong", "18446744073709551615")
	reject(t, "unsignedLong", "18446744073709551616")

	accept(t, "int", "2147483647")
	reject(t, "int", "2147483648")
	accept(t, "short", "-32768")
	reject(t, "short", "32768")
}

func TestFloats(t *testing.T) {
	accept(t, "float", "1.5E4")
	accept(t, "double", "-1.5e-4")
	accept(t, "double", "INF")
	accept(t, "double", "-INF")
	accept(t, "double", "NaN")
	reject(t, "double", "Infinity")
	reject(t, "double", "0x1p3")
	reject(t, "double", "nan")
	reject(t, "double", "")
}

func TestStringsAndWhitespace(t *testing.T) {
	// string preserves whitespace.
	if v := accept(t, "string", "  a\tb  "); v.Str != "  a\tb  " {
		t.Errorf("string preserve: %q", v.Str)
	}
	// normalizedString replaces tabs/newlines with spaces.
	if v := accept(t, "normalizedString", "a\tb\nc"); v.Str != "a b c" {
		t.Errorf("replace: %q", v.Str)
	}
	// token collapses.
	if v := accept(t, "token", "  a \t b  "); v.Str != "a b" {
		t.Errorf("collapse: %q", v.Str)
	}
}

func TestNamesAndTokens(t *testing.T) {
	accept(t, "Name", "po:name")
	accept(t, "NCName", "name")
	reject(t, "NCName", "po:name")
	reject(t, "Name", "9name")
	accept(t, "NMTOKEN", "926-AA")
	reject(t, "NMTOKEN", "a b")
	accept(t, "ID", "id-1")
	accept(t, "language", "en")
	accept(t, "language", "en-US")
	reject(t, "language", "verylonglanguagetag") // >8 chars in one subtag
	reject(t, "language", "en_US")
}

func TestListTypes(t *testing.T) {
	v := accept(t, "NMTOKENS", " one two\tthree ")
	if len(v.List()) != 3 || v.List()[1].Str != "two" {
		t.Errorf("NMTOKENS items: %+v", v.List())
	}
	reject(t, "NMTOKENS", "") // minLength 1
	reject(t, "NMTOKENS", "ok bad token?")
	accept(t, "IDREFS", "a b")
	accept(t, "ENTITIES", "e1")
}

func TestDates(t *testing.T) {
	accept(t, "date", "1999-05-21")
	accept(t, "date", "1999-05-21Z")
	accept(t, "date", "1999-05-21+05:30")
	accept(t, "date", "-0045-01-01") // 45 BC
	reject(t, "date", "1999-13-01")
	reject(t, "date", "1999-02-29") // not a leap year
	accept(t, "date", "2000-02-29") // leap year
	reject(t, "date", "99-05-21")
	reject(t, "date", "1999-5-21")
	reject(t, "date", "0000-01-01")
}

func TestDateTimes(t *testing.T) {
	accept(t, "dateTime", "1999-05-31T13:20:00")
	accept(t, "dateTime", "1999-05-31T13:20:00.5-05:00")
	accept(t, "dateTime", "1999-05-31T24:00:00") // first instant of next day
	reject(t, "dateTime", "1999-05-31T24:00:01")
	reject(t, "dateTime", "1999-05-31 13:20:00")
	reject(t, "dateTime", "1999-05-31T25:00:00")
	reject(t, "dateTime", "1999-05-31T13:61:00")
}

func TestTimes(t *testing.T) {
	accept(t, "time", "13:20:00")
	accept(t, "time", "13:20:00.123456789Z")
	reject(t, "time", "1:20:00")
	reject(t, "time", "13:20")
}

func TestGregorians(t *testing.T) {
	accept(t, "gYear", "1999")
	accept(t, "gYear", "-0044")
	accept(t, "gYear", "12000")
	reject(t, "gYear", "99")
	accept(t, "gYearMonth", "1999-05")
	reject(t, "gYearMonth", "1999-13")
	accept(t, "gMonthDay", "--05-21")
	accept(t, "gMonthDay", "--02-29") // leap-capable reference year
	reject(t, "gMonthDay", "--02-30")
	accept(t, "gDay", "---21")
	reject(t, "gDay", "---32")
	accept(t, "gMonth", "--05")
	reject(t, "gMonth", "--00")
}

func TestTemporalOrdering(t *testing.T) {
	b := MustLookup("dateTime")
	early, _ := b.Parse("1999-05-31T13:20:00Z")
	late, _ := b.Parse("1999-05-31T14:20:00Z")
	// +01:00 offset makes the second equal to the first.
	shifted, _ := b.Parse("1999-05-31T14:20:00+01:00")
	if c, _ := Compare(early, late); c != -1 {
		t.Error("early < late expected")
	}
	if c, _ := Compare(early, shifted); c != 0 {
		t.Error("timezone normalization failed")
	}
	d := MustLookup("date")
	a, _ := d.Parse("1999-05-21")
	bb, _ := d.Parse("1999-05-22")
	if c, _ := Compare(a, bb); c != -1 {
		t.Error("date ordering failed")
	}
}

func TestDurations(t *testing.T) {
	accept(t, "duration", "P1Y2M3DT4H5M6S")
	accept(t, "duration", "PT0.5S")
	accept(t, "duration", "-P30D")
	accept(t, "duration", "P1M")
	accept(t, "duration", "PT1M")
	reject(t, "duration", "P")
	reject(t, "duration", "PT")
	reject(t, "duration", "1Y")
	reject(t, "duration", "P1.5Y")
	reject(t, "duration", "P1S")

	b := MustLookup("duration")
	short, _ := b.Parse("P29D")
	month, _ := b.Parse("P1M")
	if c, _ := Compare(short, month); c != -1 {
		t.Error("P29D < P1M expected under the approximate order")
	}
}

func TestBinaries(t *testing.T) {
	v := accept(t, "hexBinary", "0fB7")
	if len(v.Binary()) != 2 || v.Binary()[0] != 0x0f || v.Binary()[1] != 0xb7 {
		t.Errorf("hexBinary bytes: %v", v.Binary())
	}
	reject(t, "hexBinary", "0fB")
	reject(t, "hexBinary", "0g")
	v = accept(t, "base64Binary", "aGVsbG8=")
	if string(v.Binary()) != "hello" {
		t.Errorf("base64: %q", v.Binary())
	}
	reject(t, "base64Binary", "a===")
}

func TestQNames(t *testing.T) {
	accept(t, "QName", "po:item")
	accept(t, "QName", "item")
	reject(t, "QName", ":item")
	reject(t, "QName", "a:b:c")
	reject(t, "QName", "1a")
}

func TestDerivesFrom(t *testing.T) {
	pos := MustLookup("positiveInteger")
	for _, anc := range []string{"nonNegativeInteger", "integer", "decimal", "anySimpleType"} {
		if !pos.DerivesFrom(MustLookup(anc)) {
			t.Errorf("positiveInteger should derive from %s", anc)
		}
	}
	if pos.DerivesFrom(MustLookup("string")) {
		t.Error("positiveInteger must not derive from string")
	}
	if pos.Primitive() != MustLookup("decimal") {
		t.Errorf("primitive of positiveInteger: %s", pos.Primitive().Name)
	}
}

func TestFacetCheckDirect(t *testing.T) {
	// The paper's quantity type: positiveInteger with maxExclusive 100.
	f := Facets{MaxExclusive: decVal("100")}
	v, _ := MustLookup("positiveInteger").Parse("99")
	if err := f.Check(v, "99"); err != nil {
		t.Errorf("99 should pass: %v", err)
	}
	v, _ = MustLookup("positiveInteger").Parse("100")
	if err := f.Check(v, "100"); err == nil {
		t.Error("100 should fail maxExclusive 100")
	}
}

func TestEnumerationFacet(t *testing.T) {
	us := Value{Kind: VString, Str: "US"}
	de := Value{Kind: VString, Str: "DE"}
	f := Facets{Enumeration: []Value{us, de}}
	if err := f.Check(Value{Kind: VString, Str: "US"}, "US"); err != nil {
		t.Errorf("US should pass: %v", err)
	}
	if err := f.Check(Value{Kind: VString, Str: "FR"}, "FR"); err == nil {
		t.Error("FR should fail enumeration")
	}
}

func TestLengthFacets(t *testing.T) {
	f := Facets{MinLength: intPtr(2), MaxLength: intPtr(4)}
	check := func(s string) error { return f.Check(Value{Kind: VString, Str: s}, s) }
	if err := check("ab"); err != nil {
		t.Errorf("min boundary: %v", err)
	}
	if err := check("abcd"); err != nil {
		t.Errorf("max boundary: %v", err)
	}
	if check("a") == nil || check("abcde") == nil {
		t.Error("length bounds not enforced")
	}
	// Length counts runes, not bytes.
	g := Facets{Length: intPtr(2)}
	if err := g.Check(Value{Kind: VString, Str: "éü"}, "éü"); err != nil {
		t.Errorf("rune length: %v", err)
	}
}

func TestTotalAndFractionDigits(t *testing.T) {
	f := Facets{TotalDigits: intPtr(5), FractionDigits: intPtr(2)}
	ok, _ := ParseDecimal("123.45")
	if err := f.Check(DecimalValue(ok), "123.45"); err != nil {
		t.Errorf("123.45: %v", err)
	}
	bad1, _ := ParseDecimal("1234.56")
	if f.Check(DecimalValue(bad1), "1234.56") == nil {
		t.Error("totalDigits not enforced")
	}
	bad2, _ := ParseDecimal("1.234")
	if f.Check(DecimalValue(bad2), "1.234") == nil {
		t.Error("fractionDigits not enforced")
	}
}

func TestInt64Conversion(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"-1", -1, true},
		{"9223372036854775807", 9223372036854775807, true},
		{"-9223372036854775808", -9223372036854775808, true},
		{"9223372036854775808", 0, false},
		{"-9223372036854775809", 0, false},
	}
	for _, c := range cases {
		d := MustDecimal(c.in)
		got, err := d.Int64()
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("Int64(%s) = %d, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Int64(%s) should overflow", c.in)
		}
	}
}

func TestValueStringRoundTrip(t *testing.T) {
	// Canonical forms must reparse to equal values.
	cases := []struct{ typ, lex string }{
		{"decimal", "-1.50"},
		{"dateTime", "1999-05-21T04:05:06Z"},
		{"date", "1999-05-21"},
		{"duration", "P1Y2M3DT4H5M6S"},
		{"hexBinary", "DEADBEEF"},
		{"base64Binary", "aGVsbG8="},
		{"boolean", "1"},
	}
	for _, c := range cases {
		b := MustLookup(c.typ)
		v1, err := b.Parse(c.lex)
		if err != nil {
			t.Fatalf("%s %q: %v", c.typ, c.lex, err)
		}
		v2, err := b.Parse(v1.String())
		if err != nil {
			t.Fatalf("%s canonical %q: %v", c.typ, v1.String(), err)
		}
		if !v1.Equal(v2) {
			t.Errorf("%s: %q -> %q not value-equal", c.typ, c.lex, v1.String())
		}
	}
}

func TestSKUPatternViaFacet(t *testing.T) {
	// The paper's SKU simple type: string restricted by \d{3}-[A-Z]{2}.
	re, err := xsdregex.Compile(`\d{3}-[A-Z]{2}`)
	if err != nil {
		t.Fatal(err)
	}
	f := Facets{Patterns: []*xsdregex.Regexp{re}}
	if err := f.Check(Value{Kind: VString, Str: "926-AA"}, "926-AA"); err != nil {
		t.Errorf("926-AA should match SKU: %v", err)
	}
	if f.Check(Value{Kind: VString, Str: "926-aa"}, "926-aa") == nil {
		t.Error("926-aa should fail SKU")
	}
}

func TestAnyURI(t *testing.T) {
	accept(t, "anyURI", "http://example.com/a?b=c#d")
	accept(t, "anyURI", "relative/path")
	accept(t, "anyURI", "")
}

func TestCompareErrors(t *testing.T) {
	a := BoolValue(true)
	b := BoolValue(false)
	if _, err := Compare(a, b); err == nil {
		t.Error("booleans must be unordered")
	}
	c := DecimalValue(MustDecimal("1"))
	if _, err := Compare(a, c); err == nil {
		t.Error("cross-kind comparison must error")
	}
}

// TestPatternConfigCap: a value whose run outgrows the automaton's
// configuration cap fails with an error that names the cap, not a
// mismatch. After k a's the run of (a|b)*a(a|b){5000} holds a
// configuration per count below 5,000. The time bound is on CPU time.
func TestPatternConfigCap(t *testing.T) {
	begin := processCPU()
	f := Facets{Patterns: []*xsdregex.Regexp{xsdregex.MustCompile(`(a|b)*a(a|b){5000}`)}}
	lex := strings.Repeat("a", 5001)
	err := f.Check(Value{Kind: VString, Str: lex}, lex)
	if !errors.Is(err, contentmodel.ErrConfigCap) || !strings.Contains(err.Error(), "cap of 4096 configurations") ||
		strings.Contains(err.Error(), "does not match") {
		t.Fatalf("Check = %v; want the configuration cap", err)
	}
	if d := processCPU() - begin; !raceEnabled && d > 2*time.Second {
		t.Errorf("reaching the cap took %v of CPU", d)
	}
}

// raceEnabled reports a build with the race detector (race_test.go), where
// the timing bound does not hold.
var raceEnabled bool
