package xsdtypes

import (
	"bytes"
	"testing"
)

// These tables pin down lexical-space edges where a lenient standard-
// library parser (strconv.Atoi accepts signs, base64 tolerates layout)
// would widen XSD's grammar: signs inside date fields and timezones,
// empty duration fractions, odd-length and whitespace-laden binary.

func TestYearLexicalStrictness(t *testing.T) {
	accept(t, "gYear", "2001")
	accept(t, "gYear", "-2001")
	accept(t, "gYear", "12000")
	for _, bad := range []string{
		"+2001",  // no leading '+' in the lexical space
		"-+123",  // sign after the sign
		"+201",   // '+' padding to four chars
		"2 01",   // interior space
		"20_1",   // non-digit
		"0000",   // year zero (XSD 1.0)
		"02001",  // extraneous leading zero
		"201",    // fewer than four digits
		"--2001", // double sign
	} {
		reject(t, "gYear", bad)
	}
	// The same field through a composite type.
	accept(t, "date", "2001-10-26")
	reject(t, "date", "+2001-10-26")
}

func TestTimezoneLexicalStrictness(t *testing.T) {
	accept(t, "time", "13:20:00Z")
	accept(t, "time", "13:20:00+05:30")
	accept(t, "time", "13:20:00-14:00")
	for _, bad := range []string{
		"13:20:00+-5:59", // Atoi would read hour "-5" and pass the h > 14 check
		"13:20:00++5:59",
		"13:20:00+5-:59",
		"13:20:00+05:+9",
		"13:20:00+15:00", // offset out of range
		"13:20:00+14:01",
	} {
		reject(t, "time", bad)
	}
	accept(t, "dateTime", "2001-10-26T13:20:00+14:00")
	reject(t, "dateTime", "2001-10-26T13:20:00+-5:59")
}

func TestDurationFractionStrictness(t *testing.T) {
	accept(t, "duration", "PT1.5S")
	accept(t, "duration", "PT0.000000001S")
	for _, bad := range []string{
		"PT1.S",  // digits required after the point
		"PT.5S",  // and before it
		"PT.S",   // neither
		"P1.5Y",  // fractions only on seconds
		"PT1.5M", // likewise
		"+P1Y",   // no leading '+'
	} {
		reject(t, "duration", bad)
	}
}

func TestHexBinaryLexical(t *testing.T) {
	cases := []struct {
		lexical string
		want    []byte // nil means reject
	}{
		{"0FB7", []byte{0x0f, 0xb7}},
		{"0fb7", []byte{0x0f, 0xb7}},
		{"", []byte{}},
		{"  0FB7  ", []byte{0x0f, 0xb7}}, // collapse strips the edges
		{"\t0FB7\n", []byte{0x0f, 0xb7}}, // any XML whitespace
		{"0F B7", nil},                   // interior space is not hex
		{"F", nil},                       // odd length
		{"0FB", nil},                     // odd length
		{"0G", nil},                      // not a hex digit
		{"0x0F", nil},                    // no 0x prefix
	}
	for _, c := range cases {
		if c.want == nil {
			reject(t, "hexBinary", c.lexical)
			continue
		}
		v := accept(t, "hexBinary", c.lexical)
		if !bytes.Equal(v.Binary(), c.want) {
			t.Errorf("hexBinary %q = %x, want %x", c.lexical, v.Binary(), c.want)
		}
	}
}

func TestBase64BinaryLexical(t *testing.T) {
	cases := []struct {
		lexical string
		want    []byte // nil means reject
	}{
		{"TWFu", []byte("Man")},
		{"TWE=", []byte("Ma")},
		{"TQ==", []byte("M")},
		{"", []byte{}},
		{"  TWFu  ", []byte("Man")},    // collapse strips the edges
		{"TWFu IA==", []byte("Man ")},  // XSD allows single interior spaces
		{"TWFu\nIA==", []byte("Man ")}, // newline collapses to a space first
		{"TWF", nil},                   // length not a multiple of four
		{"TWFu=", nil},                 // stray padding
		{"====", nil},                  // padding only
		{"TW!u", nil},                  // not in the alphabet
	}
	for _, c := range cases {
		if c.want == nil {
			reject(t, "base64Binary", c.lexical)
			continue
		}
		v := accept(t, "base64Binary", c.lexical)
		if !bytes.Equal(v.Binary(), c.want) {
			t.Errorf("base64Binary %q = %q, want %q", c.lexical, v.Binary(), c.want)
		}
	}
}
