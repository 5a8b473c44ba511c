package bind

import (
	"testing"
	"unsafe"

	"repro/internal/xsdtypes"
)

// TestValueLayout pins what packing the value representation must keep:
// the sizes that make xsdtypes.Value register-passed and bind's Values
// and Attrs cheap, and the parse, canonical form and order of the inputs
// that stress each packed field.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(xsdtypes.Value{}); n > 48 {
		t.Errorf("xsdtypes.Value is %d bytes, want at most 48", n)
	}
	if n := unsafe.Sizeof(Value{}); n > 240 {
		t.Errorf("bind.Value is %d bytes, want at most 240", n)
	}
	if n := unsafe.Sizeof(Attr{}); n > 80 {
		t.Errorf("bind.Attr is %d bytes, want at most 80", n)
	}

	parse := func(typ, lexical string) xsdtypes.Value {
		t.Helper()
		v, err := xsdtypes.MustLookup(typ).Parse(lexical)
		if err != nil {
			t.Fatalf("%s %q: %v", typ, lexical, err)
		}
		return v
	}
	for _, c := range []struct{ typ, lexical, canonical string }{
		{"dateTime", "3000000000-06-01T00:00:00-14:00", "3000000000-06-01T00:00:00-14:00"},
		{"date", "-0044-03-15Z", "-0044-03-15Z"},
		{"dateTime", "0001-01-01T00:00:00.1234567891+14:00", "0001-01-01T00:00:00.123456789+14:00"},
		{"time", "24:00:00", "24:00:00"},
		{"gYear", "-10000", "-10000"},
		{"decimal", "-0.0", "0"},
		{"float", "-0", "-0"},
		{"float", "NaN", "NaN"},
		{"hexBinary", "", ""},
		{"base64Binary", "", ""},
	} {
		v := parse(c.typ, c.lexical)
		if got := v.String(); got != c.canonical {
			t.Errorf("%s %q: canonical %q, want %q", c.typ, c.lexical, got, c.canonical)
		}
		if w := parse(c.typ, v.String()); !w.Equal(v) {
			t.Errorf("%s %q: the canonical form parses to an unequal value", c.typ, c.lexical)
		}
	}

	for _, c := range []struct {
		typ, a, b string
		want      int // -2: unordered
	}{
		{"dateTime", "3000000000-06-01T00:00:00-14:00", "0001-01-01T00:00:00.1234567891+14:00", 1},
		{"dateTime", "0001-01-01T00:00:00.1234567891+14:00", "0001-01-01T00:00:00.123456789+14:00", 0},
		{"dateTime", "0001-01-01T00:00:00.1234567891+14:00", "0001-01-01T00:00:00.1234567881+14:00", 1},
		{"date", "-0044-03-15Z", "0001-01-01Z", -1},
		{"time", "24:00:00", "23:59:59", 1},
		{"gYear", "-10000", "-9999", -1},
		{"decimal", "-0.0", "0", 0},
		{"float", "-0", "0", 0},
		{"float", "NaN", "NaN", -2},
		{"hexBinary", "", "", -2},
		{"base64Binary", "", "", -2},
	} {
		got, err := xsdtypes.Compare(parse(c.typ, c.a), parse(c.typ, c.b))
		switch {
		case c.want == -2 && err == nil:
			t.Errorf("%s: Compare(%q, %q) = %d, want unordered", c.typ, c.a, c.b, got)
		case c.want != -2 && (err != nil || got != c.want):
			t.Errorf("%s: Compare(%q, %q) = %d, %v, want %d", c.typ, c.a, c.b, got, err, c.want)
		}
	}
}
