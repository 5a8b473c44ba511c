package xsd

import (
	"strings"
	"testing"

	"repro/internal/contentmodel"
)

func TestImportWithLoader(t *testing.T) {
	main := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:other="urn:other">
  <xsd:import namespace="urn:other" schemaLocation="other.xsd"/>
  <xsd:element name="root" type="other:T"/>
</xsd:schema>`
	other := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    targetNamespace="urn:other">
  <xsd:complexType name="T">
    <xsd:sequence><xsd:element name="x" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
</xsd:schema>`
	s, err := Parse([]byte(main), &ParseOptions{Loader: MapLoader{"other.xsd": []byte(other)}})
	if err != nil {
		t.Fatal(err)
	}
	root, ok := s.LookupElement(QName{Local: "root"})
	if !ok || root.Type.TypeName() != (QName{Space: "urn:other", Local: "T"}) {
		t.Errorf("imported type not linked: %+v", root)
	}
	// Import without schemaLocation is tolerated (components may come
	// from elsewhere) as long as nothing references them.
	benign := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:import namespace="urn:absent"/>
  <xsd:element name="r" type="xsd:string"/>
</xsd:schema>`
	if _, err := ParseString(benign, nil); err != nil {
		t.Errorf("location-less import: %v", err)
	}
}

func TestProhibitedAttributeInRestriction(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Base">
    <xsd:sequence/>
    <xsd:attribute name="keep" type="xsd:string"/>
    <xsd:attribute name="drop" type="xsd:string"/>
  </xsd:complexType>
  <xsd:complexType name="Narrow">
    <xsd:complexContent>
      <xsd:restriction base="Base">
        <xsd:sequence/>
        <xsd:attribute name="drop" use="prohibited"/>
      </xsd:restriction>
    </xsd:complexContent>
  </xsd:complexType>
</xsd:schema>`
	s, err := ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	narrow := s.Types[QName{Local: "Narrow"}].(*ComplexType)
	if narrow.FindAttributeUse(QName{Local: "keep"}) == nil {
		t.Error("keep should be inherited")
	}
	if u := narrow.FindAttributeUse(QName{Local: "drop"}); u != nil {
		t.Errorf("drop should be prohibited, got %+v", u)
	}
}

func TestSkipUPACheckOption(t *testing.T) {
	bad := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T"><xsd:sequence>
    <xsd:element name="a" type="xsd:string" minOccurs="0"/>
    <xsd:element name="a" type="xsd:string"/>
  </xsd:sequence></xsd:complexType>
</xsd:schema>`
	if _, err := ParseString(bad, nil); err == nil {
		t.Fatal("UPA violation should fail by default")
	}
	s, err := ParseString(bad, &ParseOptions{SkipUPACheck: true})
	if err != nil {
		t.Fatalf("SkipUPACheck: %v", err)
	}
	// The ambiguous model still compiles, but keeps the NFA stepper:
	// the lazy DFA is attached only to UPA-clean automata.
	ct := s.Types[QName{Local: "T"}].(*ComplexType)
	g, ok := ct.Matcher(s).(*contentmodel.Glushkov)
	if !ok {
		t.Fatalf("matcher is %T, want *contentmodel.Glushkov", ct.Matcher(s))
	}
	if g.DFAEnabled() {
		t.Error("DFA attached to a UPA-violating model")
	}
	if ct.CheckUPA(s) == nil {
		t.Error("CheckUPA should report the violation")
	}
}

func TestNillableAndDefaults(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="a" type="xsd:int" nillable="true" default="5"/>
  <xsd:element name="b" type="xsd:string" fixed="F"/>
</xsd:schema>`
	s, err := ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.LookupElement(QName{Local: "a"})
	if !a.Nillable || a.Default == nil || *a.Default != "5" {
		t.Errorf("a: %+v", a)
	}
	b, _ := s.LookupElement(QName{Local: "b"})
	if b.Fixed == nil || *b.Fixed != "F" {
		t.Errorf("b: %+v", b)
	}
}

func TestElementWithoutTypeIsAnyType(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="anything"/>
</xsd:schema>`
	s, err := ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.LookupElement(QName{Local: "anything"})
	if a.Type != Type(s.AnyType()) {
		t.Errorf("untyped element should get anyType, got %v", a.Type)
	}
}

func TestGlobalTypeNames(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="A"><xsd:restriction base="xsd:string"/></xsd:simpleType>
  <xsd:complexType name="B"><xsd:sequence/></xsd:complexType>
</xsd:schema>`
	s, _ := ParseString(src, nil)
	names := s.GlobalTypeNames()
	if len(names) != 2 {
		t.Errorf("GlobalTypeNames: %v", names)
	}
}

func TestMatcherCaching(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:sequence><xsd:element name="x" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
</xsd:schema>`
	s, _ := ParseString(src, nil)
	ct := s.Types[QName{Local: "T"}].(*ComplexType)
	m1 := ct.Matcher(s)
	m2 := ct.Matcher(s)
	if m1 != m2 {
		t.Error("matcher should be cached")
	}
	if _, err := m1.Match([]contentmodel.Symbol{{Local: "x"}}); err != nil {
		t.Errorf("cached matcher: %v", err)
	}
}

func TestGroupDefinitionCycleRejected(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:group name="G">
    <xsd:sequence><xsd:group ref="G"/></xsd:sequence>
  </xsd:group>
</xsd:schema>`
	_, err := ParseString(src, nil)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("group cycle: %v", err)
	}
}

func TestChameleonInclude(t *testing.T) {
	main := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:t="urn:t" targetNamespace="urn:t">
  <xsd:include schemaLocation="parts.xsd"/>
  <xsd:element name="root" type="t:PartType"/>
</xsd:schema>`
	parts := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="PartType">
    <xsd:sequence><xsd:element name="x" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
</xsd:schema>`
	s, err := Parse([]byte(main), &ParseOptions{Loader: MapLoader{"parts.xsd": []byte(parts)}})
	if err != nil {
		t.Fatal(err)
	}
	// The chameleon component adopted the including namespace.
	if _, ok := s.Types[QName{Space: "urn:t", Local: "PartType"}]; !ok {
		t.Error("chameleon include did not adopt the target namespace")
	}
}

func TestSimpleContentOfComplexBaseWithElementContentFails(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Elems">
    <xsd:sequence><xsd:element name="x" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Bad">
    <xsd:simpleContent>
      <xsd:extension base="Elems"/>
    </xsd:simpleContent>
  </xsd:complexType>
</xsd:schema>`
	if _, err := ParseString(src, nil); err == nil {
		t.Error("simpleContent over element-content base should fail")
	}
}

func TestXPathParsing(t *testing.T) {
	good := []string{"item", ".//item", "a/b/c", "po:item", ".", "a|b", "child::item"}
	for _, s := range good {
		if _, err := parseXPath(s, false); err != nil {
			t.Errorf("selector %q: %v", s, err)
		}
	}
	if _, err := parseXPath("@x/y", true); err == nil {
		t.Error("attribute step mid-path should fail")
	}
	if _, err := parseXPath("a//b", false); err == nil {
		t.Error("internal '//' should fail")
	}
	if _, err := parseXPath("@partNum", true); err != nil {
		t.Errorf("field @attr: %v", err)
	}
}

// TestBadIdentityPathFailsParse: a malformed selector or field fails the
// schema parse and names its constraint.
func TestBadIdentityPathFailsParse(t *testing.T) {
	for _, tc := range []struct{ selector, field, want string }{
		{"@a", "@id", "identity constraint k: bad selector"},
		{"item", "a/", "identity constraint k: bad field"},
	} {
		src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="order">
    <xsd:complexType><xsd:sequence>
      <xsd:element name="item" type="xsd:string" maxOccurs="unbounded"/>
    </xsd:sequence></xsd:complexType>
    <xsd:key name="k">
      <xsd:selector xpath="` + tc.selector + `"/>
      <xsd:field xpath="` + tc.field + `"/>
    </xsd:key>
  </xsd:element>
</xsd:schema>`
		_, err := ParseString(src, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("selector %q field %q: err = %v, want %q", tc.selector, tc.field, err, tc.want)
		}
	}
}
