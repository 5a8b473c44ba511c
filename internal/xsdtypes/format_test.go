package xsdtypes

import (
	"fmt"
	"math"
	"testing"
)

// TestTemporalStringAllocs checks that dates, times and durations format
// with one allocation, the string itself, and pins the forms that stress
// the padding and fraction rules.
func TestTemporalStringAllocs(t *testing.T) {
	for _, c := range []struct {
		kind      TemporalKind
		lex, want string
	}{
		{KindDateTime, "2001-02-03T04:05:06.7080Z", "2001-02-03T04:05:06.708Z"},
		{KindDateTime, "-0044-03-15T00:00:00.000000001-05:30", "-0044-03-15T00:00:00.000000001-05:30"},
		{KindDate, "12345-12-31+14:00", "12345-12-31+14:00"},
		{KindTime, "23:59:59.5", "23:59:59.5"},
		{KindGYearMonth, "0001-01", "0001-01"},
		{KindGYear, "-10000Z", "-10000Z"},
		{KindGMonthDay, "--02-29", "--02-29"},
		{KindGDay, "---07", "---07"},
		{KindGMonth, "--11Z", "--11Z"},
	} {
		dt, err := ParseDateTime(c.kind, c.lex)
		if err != nil {
			t.Fatalf("%q: %v", c.lex, err)
		}
		if got := dt.String(); got != c.want {
			t.Errorf("%q: String %q, want %q", c.lex, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = dt.String() }); n > 1 {
			t.Errorf("%q: %.0f allocations per String, want at most 1", c.lex, n)
		}
	}
	for _, c := range []struct{ lex, want string }{
		{"P1Y2M3DT4H5M6.70S", "P1Y2M3DT4H5M6.7S"},
		{"-PT0.000000001S", "-PT0.000000001S"},
		{"P0D", "PT0S"},
		{"-P0Y", "-PT0S"},
		{"PT36H", "P1DT12H"},
		{"P25M", "P2Y1M"},
	} {
		d, err := ParseDuration(c.lex)
		if err != nil {
			t.Fatalf("%q: %v", c.lex, err)
		}
		if got := d.String(); got != c.want {
			t.Errorf("%q: String %q, want %q", c.lex, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = d.String() }); n > 1 {
			t.Errorf("%q: %.0f allocations per String, want at most 1", c.lex, n)
		}
	}
}

// TestAppendPaddedMatchesFmt holds appendPadded to fmt's %0*d, negative
// numbers and widths the digits overflow included.
func TestAppendPaddedMatchesFmt(t *testing.T) {
	for _, n := range []int64{0, 7, -7, 42, -42, 999, 12345, -12345, math.MaxInt64, math.MinInt64} {
		for _, width := range []int{1, 2, 4, 9} {
			if got, want := string(appendPadded([]byte("x"), n, width)), fmt.Sprintf("x%0*d", width, n); got != want {
				t.Errorf("appendPadded(%d, %d) = %q, want %q", n, width, got, want)
			}
		}
	}
}
