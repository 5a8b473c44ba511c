package xsdtypes

import (
	"math"
	"sort"
	"testing"
)

// TestDurationEqualityExact: equal durations have equal months, seconds
// and nanoseconds after the sign is applied. The 30.436875-day month is
// an ordering approximation only; it must not make P1M equal to its
// length in seconds, and float rounding must not merge distinct seconds.
func TestDurationEqualityExact(t *testing.T) {
	for _, c := range []struct {
		a, b  string
		equal bool
	}{
		{"P1M", "PT2629746S", false},
		{"PT9007199254740993S", "PT9007199254740992S", false},
		{"P1Y", "P12M", true},
		{"P1D", "PT24H", true},
		{"-PT0S", "PT0S", true},
	} {
		a, b := accept(t, "duration", c.a), accept(t, "duration", c.b)
		if got := a.Equal(b); got != c.equal {
			t.Errorf("Equal(%s, %s) = %v, want %v", c.a, c.b, got, c.equal)
		}
	}

	enum := Facets{Enumeration: []Value{accept(t, "duration", "P1M")}}
	if err := enum.Check(accept(t, "duration", "PT2629746S"), "PT2629746S"); err == nil {
		t.Error("enumeration {P1M} accepted PT2629746S")
	}

	// With equal months the order is exact too.
	c, err := Compare(accept(t, "duration", "PT9007199254740993S"), accept(t, "duration", "PT9007199254740992S"))
	if err != nil || c != 1 {
		t.Errorf("Compare(PT9007199254740993S, PT9007199254740992S) = %d, %v, want 1", c, err)
	}
	c, err = Compare(accept(t, "duration", "-PT1.000000001S"), accept(t, "duration", "-PT1S"))
	if err != nil || c != -1 {
		t.Errorf("Compare(-PT1.000000001S, -PT1S) = %d, %v, want -1", c, err)
	}
}

// TestDurationLexicalOrderAndRange: each designator appears once and in
// order, and an amount the int64 fields cannot hold is rejected rather
// than wrapped, so every accepted duration has a canonical form that
// parses back to it (FuzzValueCanonical).
func TestDurationLexicalOrderAndRange(t *testing.T) {
	accept(t, "duration", "P1Y2M3DT4H5M6.7S")
	accept(t, "duration", "P9223372036854775807M")
	accept(t, "duration", "PT9223372036854775807S")
	for _, bad := range []string{
		"PT1S1S",               // S twice
		"PT1.5S1.5S",           // S twice, nanoseconds summing past a second
		"P1D1Y",                // Y after D
		"PT1M1H",               // H after M
		"P768614336404564651Y", // months overflow
		"P1Y9223372036854775807M",
		"P106751991167301D", // seconds overflow
		"PT9223372036854775807H",
		"P1DT9223372036854775807S",
	} {
		reject(t, "duration", bad)
	}
}

// TestDateTimeHugeYears: years whose timeline seconds overflow int64 still
// order by year, and a facet bound holds against them.
func TestDateTimeHugeYears(t *testing.T) {
	for _, c := range []struct {
		typ, a, b string
		want      int
	}{
		{"date", "999999999999-01-01", "2000-01-01", 1},
		{"date", "2000-01-01", "999999999999-01-01", -1},
		{"date", "-999999999999-01-01", "999999999999-01-01", -1},
		{"date", "9223372036854775807-12-31", "-9223372036854775807-01-01", 1},
		// Adjacent huge years: the timezone carries the first across
		// the year boundary, past the second.
		{"dateTime", "999999999999-12-31T23:00:00-14:00", "1000000000000-01-01T00:00:00Z", 1},
		{"dateTime", "999999999999-12-31T10:00:00-14:00", "1000000000000-01-01T00:00:00Z", 0},
	} {
		got, err := Compare(accept(t, c.typ, c.a), accept(t, c.typ, c.b))
		if err != nil || got != c.want {
			t.Errorf("Compare(%s, %s) = %d, %v, want %d", c.a, c.b, got, err, c.want)
		}
	}

	bound := accept(t, "date", "2000-01-01")
	f := Facets{MinInclusive: &bound}
	if err := f.Check(accept(t, "date", "999999999999-01-01"), "999999999999-01-01"); err != nil {
		t.Errorf("minInclusive 2000-01-01 rejected 999999999999-01-01: %v", err)
	}
}

// canonicalSeeds are the lexical inputs of this package's lexical and
// canonical tables, plus edges of the packed value representation.
var canonicalSeeds = []string{
	// TestValueStringRoundTrip and the lexical tests.
	"-1.50", "1999-05-21T04:05:06Z", "1999-05-21", "P1Y2M3DT4H5M6S", "DEADBEEF",
	"aGVsbG8=", "1", "2001", "-2001", "12000", "+2001", "0000", "02001",
	"2001-10-26", "13:20:00Z", "13:20:00+05:30", "13:20:00-14:00",
	"13:20:00+-5:59", "13:20:00+14:01", "2001-10-26T13:20:00+14:00", "PT1.5S",
	"PT0.000000001S", "PT1.S", "P1.5Y", "0FB7", "0fb7", "", "  0FB7  ",
	"\t0FB7\n", "0F B7", "TWFu", "TWE=", "TQ==", "TWFu IA==", "TWFu\nIA==",
	"====",
	// Packing edges.
	"3000000000-06-01T00:00:00-14:00", "-0044-03-15Z",
	"0001-01-01T00:00:00.1234567891+14:00", "24:00:00", "-10000", "-0.0", "-0",
	"NaN", "INF", "-INF", "1E+21", "0.000", "+007.100", "-.5", "5.",
	"--02-29", "---31", "--12", "2000-02", "-PT0S", "P1M", "PT2629746S",
	"9223372036854775807", "-9223372036854775808", "18446744073709551616",
	"true", "a:b", "en-US", "a b  c", "9223372036854775807-12-31T24:00:00Z",
	"PT1.5S1.5S", "P768614336404564651Y", "P1DT9223372036854775807S",
}

// FuzzValueCanonical: for every built-in type that accepts s, the value's
// canonical form parses again to an equal value with the same canonical
// form, which on the ordered kinds compares equal to it.
func FuzzValueCanonical(f *testing.F) {
	for _, s := range canonicalSeeds {
		f.Add(s)
	}
	names := Names()
	sort.Strings(names)
	f.Fuzz(func(t *testing.T, s string) {
		for _, name := range names {
			b := MustLookup(name)
			v, err := b.Parse(s)
			if err != nil {
				continue
			}
			canon := v.String()
			w, err := b.Parse(canon)
			if err != nil {
				t.Fatalf("%s %q: canonical %q does not parse: %v", name, s, canon, err)
			}
			if !w.Equal(v) {
				t.Fatalf("%s %q: canonical %q parses to an unequal value", name, s, canon)
			}
			if again := w.String(); again != canon {
				t.Fatalf("%s %q: canonical %q renders as %q", name, s, canon, again)
			}
			switch v.Kind {
			case VDecimal, VDateTime, VDuration, VString, VFloat:
				if v.Kind == VFloat && math.IsNaN(v.Float()) {
					continue
				}
				if c, err := Compare(v, w); err != nil || c != 0 {
					t.Fatalf("%s %q: Compare with its canonical %q = %d, %v", name, s, canon, c, err)
				}
			}
		}
	})
}
