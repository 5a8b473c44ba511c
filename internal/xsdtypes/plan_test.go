package xsdtypes

import "testing"

// TestPlanFoldsBounds pins the folded bounds: the tighter bound wins, and
// at equal values the exclusive one.
func TestPlanFoldsBounds(t *testing.T) {
	check := func(name string, incl, excl *Value, value string, wantExcl bool) {
		t.Helper()
		b, isExcl := incl, false
		if excl != nil {
			b, isExcl = excl, true
		}
		if b == nil || incl != nil && excl != nil || b.String() != value || isExcl != wantExcl {
			t.Errorf("%s: bounds %v/%v, want %q excl=%v", name, incl, excl, value, wantExcl)
		}
	}
	low := func(p *Plan) (*Value, *Value) { return p.facets.MinInclusive, p.facets.MinExclusive }
	high := func(p *Plan) (*Value, *Value) { return p.facets.MaxInclusive, p.facets.MaxExclusive }
	lo, lx := low(PositiveInteger.plan)
	check("positiveInteger min", lo, lx, "1", false)
	hi, hx := high(UnsignedByte.plan)
	check("unsignedByte max", hi, hx, "255", false)
	lo, lx = low(Byte.plan)
	check("byte min", lo, lx, "-128", false)

	quantity := PositiveInteger.plan.Fold(&Facets{MaxExclusive: decVal("100")})
	hi, hx = high(quantity)
	check("quantity max", hi, hx, "100", true)
	lo, lx = low(quantity)
	check("quantity min", lo, lx, "1", false)
	// A looser bound does not replace a tighter one; an exclusive bound
	// at the same value does.
	looser := quantity.Fold(&Facets{MinInclusive: decVal("0"), MaxInclusive: decVal("100")})
	hi, hx = high(looser)
	check("looser max", hi, hx, "100", true)
	lo, lx = low(looser)
	check("looser min", lo, lx, "1", false)
	tighter := quantity.Fold(&Facets{MinExclusive: decVal("1")})
	lo, lx = low(tighter)
	check("tighter min", lo, lx, "1", true)
	if quantity.bare || !String.plan.bare {
		t.Errorf("flags: quantity bare=%v, string bare=%v", quantity.bare, String.plan.bare)
	}
}

// TestPlanFoldsOnlyWhereExact: the facets whose fold would not decide
// exactly what the steps do leave the type without a plan.
func TestPlanFoldsOnlyWhereExact(t *testing.T) {
	d, err := DurationType.Parse("P1M")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Boolean.Parse("true")
	one, two := decVal("1"), decVal("2")
	for _, tc := range []struct {
		name string
		p    *Plan
		f    Facets
	}{
		{"duration bound", DurationType.plan, Facets{MaxInclusive: &d}},
		{"boolean bound", Boolean.plan, Facets{MinInclusive: &b}},
		{"list bound", ValuesPlan, Facets{MinInclusive: one}},
		{"empty enumeration intersection", DecimalType.plan.Fold(&Facets{Enumeration: []Value{*one}}), Facets{Enumeration: []Value{*two}}},
	} {
		if got := tc.p.Fold(&tc.f); got != nil {
			t.Errorf("%s: folded to a plan", tc.name)
		}
	}
	if DecimalType.plan.Fold(&Facets{}) != DecimalType.plan {
		t.Error("a step without facets copied its base's plan")
	}
}

// TestPlanEnumerationKeys: keyed enumerations decide Equal exactly,
// across spellings and signs, and keyable values of a second kind are
// scanned.
func TestPlanEnumerationKeys(t *testing.T) {
	parse := func(b *Builtin, s string) Value {
		v, err := b.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	e := &enumSet{pos: map[string]struct{}{}, neg: map[string]struct{}{}}
	for _, v := range []Value{parse(DecimalType, "1.0"), parse(DecimalType, "-2"), parse(AnyURI, "x"), parse(Boolean, "1")} {
		e.add(v)
	}
	for _, tc := range []struct {
		v    Value
		want bool
	}{
		{parse(DecimalType, "+01"), true},
		{parse(DecimalType, "2"), false},
		{parse(DecimalType, "-2.00"), true},
		{parse(AnyURI, "x"), true},
		{parse(String, "x"), false},
		{parse(Boolean, "true"), true},
		{parse(Boolean, "0"), false},
	} {
		if got := e.has(&tc.v); got != tc.want {
			t.Errorf("has(%v %q) = %v, want %v", tc.v.Kind, tc.v.String(), got, tc.want)
		}
	}
}
