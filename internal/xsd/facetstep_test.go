package xsd

import (
	"strings"
	"testing"
)

// restrictionSchema wraps one named restriction of base with the given
// facets in a schema document.
func restrictionSchema(name, base, facets string) string {
	return `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="` + name + `">
    <xsd:restriction base="` + base + `">` + facets + `</xsd:restriction>
  </xsd:simpleType>
</xsd:schema>`
}

// TestWhiteSpaceNeverLoosens: a whiteSpace facet may keep or tighten its
// base's rule, never loosen it (Part 2 §4.3.6.4). Every accepted type
// then normalizes a value once, by its own rule.
func TestWhiteSpaceNeverLoosens(t *testing.T) {
	for _, tc := range []struct {
		base, ws string
		err      string // "" when the schema loads
	}{
		{"xsd:token", "preserve", `whiteSpace "preserve" of Loose is looser than its base's "collapse"`},
		{"xsd:token", "replace", `whiteSpace "replace" of Loose is looser than its base's "collapse"`},
		{"xsd:normalizedString", "preserve", `whiteSpace "preserve" of Loose is looser than its base's "replace"`},
		{"xsd:int", "preserve", `whiteSpace "preserve" of Loose is looser than its base's "collapse"`},
		{"xsd:token", "collapse", ""},
		{"xsd:string", "preserve", ""},
		{"xsd:string", "replace", ""},
		{"xsd:normalizedString", "collapse", ""},
	} {
		_, err := ParseString(restrictionSchema("Loose", tc.base, `<xsd:whiteSpace value="`+tc.ws+`"/>`), nil)
		if tc.err == "" {
			if err != nil {
				t.Errorf("%s with whiteSpace %s: %v", tc.base, tc.ws, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s with whiteSpace %s: error %v, want %q", tc.base, tc.ws, err, tc.err)
		}
	}

	// Loosening is checked against the base's effective rule, inherited
	// or set by its own facet; a list's rule is collapse.
	s, err := ParseString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Tight">
    <xsd:restriction base="xsd:string"><xsd:whiteSpace value="collapse"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Inherits"><xsd:restriction base="Tight"/></xsd:simpleType>
</xsd:schema>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Types[QName{Local: "Inherits"}].(*SimpleType)
	if v, err := st.Parse("  a \t b "); err != nil || v.Str != "a b" {
		t.Errorf("Inherits.Parse = %q, %v; want the collapsed value", v.Str, err)
	}
	for _, src := range []string{
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Tight">
    <xsd:restriction base="xsd:string"><xsd:whiteSpace value="collapse"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Looser">
    <xsd:restriction base="Tight"><xsd:whiteSpace value="replace"/></xsd:restriction>
  </xsd:simpleType>
</xsd:schema>`,
		`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Looser">
    <xsd:restriction><xsd:simpleType><xsd:list itemType="xsd:string"/></xsd:simpleType><xsd:whiteSpace value="preserve"/></xsd:restriction>
  </xsd:simpleType>
</xsd:schema>`,
	} {
		if _, err := ParseString(src, nil); err == nil || !strings.Contains(err.Error(), "of Looser is looser than its base's") {
			t.Errorf("loosening restriction loaded: %v", err)
		}
	}
}

// TestContradictoryFacetsRejected: facets of one restriction step that
// contradict each other fail the schema (Part 2 §4.3.1.4, §4.3.2.4,
// §4.3.7.4, §4.3.9.4, §4.3.10.4, §4.3.12.4) instead of loading a type
// that rejects every value.
func TestContradictoryFacetsRejected(t *testing.T) {
	for _, tc := range []struct {
		clause, base, facets string
		err                  string // "" when the schema loads
	}{
		{"4.3.10.4", "xsd:int", `<xsd:minInclusive value="10"/><xsd:maxInclusive value="5"/>`,
			"Rng: minInclusive 10 is greater than maxInclusive 5"},
		{"4.3.10.4", "xsd:int", `<xsd:minInclusive value="5"/><xsd:maxInclusive value="5"/>`, ""},
		{"4.3.10.4", "xsd:int", `<xsd:minInclusive value="5"/><xsd:maxExclusive value="5"/>`,
			"Rng: minInclusive 5 is not less than maxExclusive 5"},
		{"4.3.9.4", "xsd:decimal", `<xsd:minExclusive value="2.5"/><xsd:maxInclusive value="2.50"/>`,
			"Rng: minExclusive 2.5 is not less than maxInclusive 2.5"},
		{"4.3.9.4", "xsd:double", `<xsd:minExclusive value="1E3"/><xsd:maxExclusive value="999"/>`,
			"Rng: minExclusive 1000 is greater than maxExclusive 999"},
		{"4.3.9.4", "xsd:int", `<xsd:minExclusive value="5"/><xsd:maxExclusive value="5"/>`, ""},
		{"4.3.10.4", "xsd:date", `<xsd:minInclusive value="2001-01-02"/><xsd:maxInclusive value="2001-01-01"/>`,
			"Rng: minInclusive 2001-01-02 is greater than maxInclusive 2001-01-01"},
		{"4.3.10.4", "xsd:int", `<xsd:minInclusive value="1"/><xsd:minExclusive value="0"/>`,
			"Rng: minInclusive and minExclusive cannot both be given"},
		{"4.3.7.4", "xsd:int", `<xsd:maxInclusive value="9"/><xsd:maxExclusive value="10"/>`,
			"Rng: maxInclusive and maxExclusive cannot both be given"},
		{"4.3.2.4", "xsd:string", `<xsd:minLength value="4"/><xsd:maxLength value="3"/>`,
			"Rng: minLength 4 is greater than maxLength 3"},
		{"4.3.2.4", "xsd:string", `<xsd:minLength value="3"/><xsd:maxLength value="3"/>`, ""},
		{"4.3.1.4", "xsd:string", `<xsd:length value="3"/><xsd:minLength value="1"/>`,
			"Rng: length cannot be given with minLength or maxLength"},
		{"4.3.1.4", "xsd:hexBinary", `<xsd:maxLength value="8"/><xsd:length value="3"/>`,
			"Rng: length cannot be given with minLength or maxLength"},
		{"4.3.12.4", "xsd:decimal", `<xsd:totalDigits value="2"/><xsd:fractionDigits value="3"/>`,
			"Rng: fractionDigits 3 is greater than totalDigits 2"},
		{"4.3.12.4", "xsd:decimal", `<xsd:totalDigits value="3"/><xsd:fractionDigits value="3"/>`, ""},
	} {
		_, err := ParseString(restrictionSchema("Rng", tc.base, tc.facets), nil)
		if tc.err == "" {
			if err != nil {
				t.Errorf("§%s %s: %v", tc.clause, tc.facets, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("§%s %s: error %v, want %q", tc.clause, tc.facets, err, tc.err)
		}
	}

	// Bounds across derivation steps are not compared (no "valid
	// restriction" check), and a simpleContent restriction is one step
	// like any other.
	if _, err := ParseString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="From1"><xsd:restriction base="xsd:int"><xsd:minInclusive value="1"/></xsd:restriction></xsd:simpleType>
  <xsd:simpleType name="Below1"><xsd:restriction base="From1"><xsd:maxExclusive value="1"/></xsd:restriction></xsd:simpleType>
</xsd:schema>`, nil); err != nil {
		t.Errorf("bounds in different steps: %v", err)
	}
	_, err := ParseString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Price">
    <xsd:simpleContent>
      <xsd:restriction base="Money"><xsd:minLength value="2"/><xsd:maxLength value="1"/></xsd:restriction>
    </xsd:simpleContent>
  </xsd:complexType>
  <xsd:complexType name="Money">
    <xsd:simpleContent><xsd:extension base="xsd:string"/></xsd:simpleContent>
  </xsd:complexType>
</xsd:schema>`, nil)
	if err == nil || !strings.Contains(err.Error(), "minLength 2 is greater than maxLength 1") {
		t.Errorf("simpleContent restriction: error %v", err)
	}
}
