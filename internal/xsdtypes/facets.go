package xsdtypes

import (
	"fmt"
	"unicode/utf8"

	"repro/internal/xsdregex"
)

// Facets is one derivation step's worth of constraining facets. Within a
// step, multiple patterns are ORed; across steps every step must hold
// (both per XML Schema Part 2 §4.3).
type Facets struct {
	Length    *int
	MinLength *int
	MaxLength *int

	TotalDigits    *int
	FractionDigits *int

	Patterns []*xsdregex.Regexp

	// Enumeration lists the admitted values (value-space comparison).
	Enumeration []Value

	MinInclusive *Value
	MaxInclusive *Value
	MinExclusive *Value
	MaxExclusive *Value

	// WhiteSpace overrides the inherited whitespace mode when non-nil.
	WhiteSpace *WhiteSpace
}

// IsEmpty reports whether no facet is set.
func (f *Facets) IsEmpty() bool {
	return f.Length == nil && f.MinLength == nil && f.MaxLength == nil &&
		f.TotalDigits == nil && f.FractionDigits == nil &&
		len(f.Patterns) == 0 && len(f.Enumeration) == 0 &&
		f.MinInclusive == nil && f.MaxInclusive == nil &&
		f.MinExclusive == nil && f.MaxExclusive == nil && f.WhiteSpace == nil
}

// valueLength returns the facet-relevant length of a value: runes for
// strings, octets for binaries, items for lists.
func valueLength(v *Value) (int, bool) {
	switch v.Kind {
	case VString, VAnyURI:
		return utf8.RuneCountInString(v.Str), true
	case VHexBinary, VBase64Binary:
		return len(v.Binary()), true
	case VList:
		return len(v.List()), true
	}
	return 0, false
}

// Check verifies the value (with its whitespace-normalized lexical form)
// against this facet step.
func (f *Facets) Check(v Value, lexical string) error { return f.check(&v, lexical) }

// check is Check reading the value through a pointer, which a folded plan
// passes without copying the value.
func (f *Facets) check(v *Value, lexical string) error {
	if f.Length != nil || f.MinLength != nil || f.MaxLength != nil {
		n, ok := valueLength(v)
		switch {
		case !ok:
		case f.Length != nil && n != *f.Length:
			return fmt.Errorf("length is %d, must be exactly %d", n, *f.Length)
		case f.MinLength != nil && n < *f.MinLength:
			return fmt.Errorf("length is %d, must be at least %d", n, *f.MinLength)
		case f.MaxLength != nil && n > *f.MaxLength:
			return fmt.Errorf("length is %d, must be at most %d", n, *f.MaxLength)
		}
	}
	if v.Kind == VDecimal && (f.TotalDigits != nil || f.FractionDigits != nil) {
		d := v.Decimal()
		if f.TotalDigits != nil && d.TotalDigits() > *f.TotalDigits {
			return fmt.Errorf("value %s has more than %d total digits", d, *f.TotalDigits)
		}
		if f.FractionDigits != nil && d.FractionDigits() > *f.FractionDigits {
			return fmt.Errorf("value %s has more than %d fraction digits", d, *f.FractionDigits)
		}
	}
	if len(f.Patterns) > 0 {
		ok := false
		var capErr error // a pattern whose run outgrew its cap: no verdict
		for _, p := range f.Patterns {
			m, err := p.Match(lexical)
			if m {
				ok = true
				break
			}
			if err != nil && capErr == nil {
				capErr = fmt.Errorf("value %q cannot be checked against pattern %q: %w", lexical, p.String(), err)
			}
		}
		if !ok {
			if capErr != nil {
				return capErr
			}
			if len(f.Patterns) == 1 {
				return fmt.Errorf("value %q does not match pattern %q", lexical, f.Patterns[0].String())
			}
			return fmt.Errorf("value %q matches none of the %d patterns", lexical, len(f.Patterns))
		}
	}
	if len(f.Enumeration) > 0 {
		ok := false
		for _, e := range f.Enumeration {
			if v.Equal(e) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("value %q is not one of the enumerated values", lexical)
		}
	}
	if f.MinInclusive != nil {
		if c, err := compare(v, f.MinInclusive); err != nil || c < 0 {
			return boundErr(err, lexical, ">=", f.MinInclusive)
		}
	}
	if f.MaxInclusive != nil {
		if c, err := compare(v, f.MaxInclusive); err != nil || c > 0 {
			return boundErr(err, lexical, "<=", f.MaxInclusive)
		}
	}
	if f.MinExclusive != nil {
		if c, err := compare(v, f.MinExclusive); err != nil || c <= 0 {
			return boundErr(err, lexical, ">", f.MinExclusive)
		}
	}
	if f.MaxExclusive != nil {
		if c, err := compare(v, f.MaxExclusive); err != nil || c >= 0 {
			return boundErr(err, lexical, "<", f.MaxExclusive)
		}
	}
	return nil
}

func boundErr(err error, lexical, op string, bound *Value) error {
	if err != nil {
		return fmt.Errorf("value %q cannot be range-checked: %v", lexical, err)
	}
	return fmt.Errorf("value %q must be %s %s", lexical, op, bound.String())
}
