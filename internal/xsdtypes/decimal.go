package xsdtypes

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Decimal is an arbitrary-precision decimal in the xs:decimal value space,
// stored in a normalized sign/digits form: Int has no leading zeros, Frac
// has no trailing zeros, and zero is {Neg: false, Int: "", Frac: ""}.
type Decimal struct {
	Neg  bool
	Int  string // integer digits, leading zeros stripped ("" means 0)
	Frac string // fraction digits, trailing zeros stripped
}

// ParseDecimal parses the xs:decimal lexical space: optional sign, digits,
// optional fraction. At least one digit must be present.
func ParseDecimal(s string) (Decimal, error) {
	neg, digits, split, err := scanDecimal(s)
	if err != nil {
		return Decimal{}, err
	}
	d := Decimal{Neg: neg, Int: digits[:split]}
	if split < len(digits) {
		d.Frac = digits[split+1:]
	}
	return d, nil
}

// scanDecimal parses the xs:decimal lexical space and returns the sign
// (false for zero), the significant digits "Int[.Frac]" as a substring of
// s (leading integer and trailing fraction zeros cut, the point cut with
// an empty fraction), and len(Int).
func scanDecimal(s string) (neg bool, digits string, split int, err error) {
	orig := s
	if s == "" {
		return false, "", 0, fmt.Errorf("empty decimal")
	}
	switch s[0] {
	case '+':
		s = s[1:]
	case '-':
		neg = true
		s = s[1:]
	}
	intEnd, fracStart := len(s), len(s)
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intEnd, fracStart = i, i+1
	}
	if intEnd == 0 && fracStart == len(s) {
		return false, "", 0, fmt.Errorf("decimal %q has no digits", orig)
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && i != intEnd {
			r, _ := utf8.DecodeRuneInString(s[i:])
			return false, "", 0, fmt.Errorf("bad digit %q in decimal %q", r, orig)
		}
	}
	start := 0
	for start < intEnd && s[start] == '0' {
		start++
	}
	end := len(s)
	for end > fracStart && s[end-1] == '0' {
		end--
	}
	if end == fracStart {
		end = intEnd // no fraction digits: drop the point
	}
	digits = s[start:end]
	if digits == "" {
		neg = false // normalize -0 to 0
	}
	return neg, digits, intEnd - start, nil
}

// MustDecimal parses a decimal literal known to be valid.
func MustDecimal(s string) Decimal {
	d, err := ParseDecimal(s)
	if err != nil {
		panic(err)
	}
	return d
}

// IsZero reports whether d is zero.
func (d Decimal) IsZero() bool { return d.Int == "" && d.Frac == "" }

// IsInteger reports whether d has no fractional part.
func (d Decimal) IsInteger() bool { return d.Frac == "" }

// Cmp compares two decimals, returning -1, 0 or +1.
func (d Decimal) Cmp(e Decimal) int {
	v, w := DecimalValue(d), DecimalValue(e)
	return cmpDecimal(&v, &w)
}

// cmpDecimal compares two VDecimal values, returning -1, 0 or +1. Their
// digits "Int[.Frac]" have no leading integer or trailing fraction zeros
// and zero is never negative, so between integer parts of one length the
// magnitudes order as the digit strings do.
func cmpDecimal(v, w *Value) int {
	neg := v.bits&decimalNeg != 0
	if neg != (w.bits&decimalNeg != 0) {
		if neg {
			return -1
		}
		return 1
	}
	var c int
	switch {
	case v.w0 < w.w0:
		c = -1
	case v.w0 > w.w0:
		c = 1
	default:
		c = strings.Compare(v.Str, w.Str)
	}
	if neg {
		return -c
	}
	return c
}

// String returns the canonical lexical form (e.g. "-1.5", "0", "0.3").
func (d Decimal) String() string {
	var sb strings.Builder
	if d.Neg && !d.IsZero() {
		sb.WriteByte('-')
	}
	if d.Int == "" {
		sb.WriteByte('0')
	} else {
		sb.WriteString(d.Int)
	}
	if d.Frac != "" {
		sb.WriteByte('.')
		sb.WriteString(d.Frac)
	}
	return sb.String()
}

// TotalDigits returns the number of significant decimal digits (for the
// totalDigits facet); zero has one digit.
func (d Decimal) TotalDigits() int {
	n := len(d.Int) + len(d.Frac)
	if n == 0 {
		return 1
	}
	return n
}

// FractionDigits returns the number of fraction digits.
func (d Decimal) FractionDigits() int { return len(d.Frac) }

// Int64 converts to int64, reporting overflow or a fractional part.
func (d Decimal) Int64() (int64, error) {
	if !d.IsInteger() {
		return 0, fmt.Errorf("decimal %s is not an integer", d)
	}
	limit := uint64(1<<63 - 1)
	if d.Neg {
		limit = 1 << 63 // math.MinInt64 magnitude
	}
	var v uint64
	for i := 0; i < len(d.Int); i++ {
		digit := uint64(d.Int[i] - '0')
		if v > (limit-digit)/10 {
			return 0, fmt.Errorf("decimal %s overflows int64", d)
		}
		v = v*10 + digit
	}
	if d.Neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// DecimalFromInt64 builds a Decimal from an int64.
func DecimalFromInt64(v int64) Decimal {
	if v == 0 {
		return Decimal{}
	}
	neg := v < 0
	var s string
	if v == -(1 << 63) {
		s = "9223372036854775808"
	} else {
		if neg {
			v = -v
		}
		s = fmt.Sprintf("%d", v)
	}
	return Decimal{Neg: neg, Int: s}
}
