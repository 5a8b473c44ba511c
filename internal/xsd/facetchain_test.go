package xsd

import (
	"sync"
	"testing"
)

// TestFacetStepsBlameRootMost pins the order of the user facet walk: a
// restriction of a list type checks its base's facets before its own, so
// a value breaking both is blamed on the base step.
func TestFacetStepsBlameRootMost(t *testing.T) {
	s, err := ParseString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="ints">
    <xsd:restriction>
      <xsd:simpleType><xsd:list itemType="xsd:int"/></xsd:simpleType>
      <xsd:maxLength value="3"/>
    </xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="pair">
    <xsd:restriction base="ints"><xsd:maxLength value="2"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:element name="p" type="pair"/>
</xsd:schema>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Elements[QName{Local: "p"}].Type.(*SimpleType)
	for lexical, want := range map[string]string{
		"1 2 3 4": "pair: length is 4, must be at most 3", // breaks both steps
		"1 2 3":   "pair: length is 3, must be at most 2", // breaks pair's only
	} {
		if _, err := st.Parse(lexical); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", lexical, err, want)
		}
	}
	if _, err := st.Parse("1 2"); err != nil {
		t.Errorf("1 2: %v", err)
	}
}

// TestFixedValueParsedOnce checks the cached fixed value under concurrent
// first use (run with -race) and that an xsi:type override gets its own
// parse.
func TestFixedValueParsedOnce(t *testing.T) {
	s, err := ParseString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="e" type="xsd:decimal" fixed="1.50"/>
  <xsd:complexType name="c"><xsd:attribute name="a" type="xsd:int" fixed="07"/></xsd:complexType>
</xsd:schema>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	decl := s.Elements[QName{Local: "e"}]
	ct, _ := s.LookupType(QName{Local: "c"})
	use := ct.(*ComplexType).AttributeUses[0]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, ok := decl.FixedValue(decl.Type.(*SimpleType)); !ok || v.String() != "1.5" {
				t.Errorf("element fixed value: %v %v", v, ok)
			}
			if v, ok := use.FixedValue(); !ok || v.String() != "7" {
				t.Errorf("attribute fixed value: %v %v", v, ok)
			}
		}()
	}
	wg.Wait()
	str, _ := s.LookupType(QName{Space: XSDNamespace, Local: "string"})
	if v, ok := decl.FixedValue(str.(*SimpleType)); !ok || v.String() != "1.50" {
		t.Errorf("fixed value under an override type: %v %v", v, ok)
	}
}
