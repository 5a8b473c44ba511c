package validator

import (
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/xsd"
)

// TestViolationCap: error collection stops at the cap instead of flooding.
func TestViolationCap(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="L">
    <xsd:sequence>
      <xsd:element name="n" type="xsd:int" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="list" type="L"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	var sb strings.Builder
	sb.WriteString("<list>")
	for i := 0; i < 500; i++ {
		sb.WriteString("<n>not-a-number</n>")
	}
	sb.WriteString("</list>")
	doc, err := dom.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	res := New(s, nil).ValidateDocument(doc)
	if res.OK() {
		t.Fatal("expected violations")
	}
	if len(res.Violations) > maxViolations {
		t.Errorf("violations exceed the cap: %d", len(res.Violations))
	}
}

// TestWhitespaceOnlyTextAllowed: ignorable whitespace between children of
// element-only content is fine (the pretty-printed Fig. 1 relies on it).
func TestWhitespaceOnlyTextAllowed(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:sequence><xsd:element name="x" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
  <xsd:element name="r" type="T"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	doc, _ := dom.ParseString("<r>\n\t  <x>v</x>\n</r>")
	if res := New(s, nil).ValidateDocument(doc); !res.OK() {
		t.Errorf("ignorable whitespace flagged: %v", res.Err())
	}
}

// TestCommentsAndPIsIgnoredByValidator: non-element, non-text nodes never
// affect validity.
func TestCommentsAndPIsIgnored(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:sequence><xsd:element name="x" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
  <xsd:element name="r" type="T"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	doc, _ := dom.ParseString(`<r><!--c--><?pi d?><x>v</x><!--t--></r>`)
	if res := New(s, nil).ValidateDocument(doc); !res.OK() {
		t.Errorf("comments/PIs flagged: %v", res.Err())
	}
}

// TestNamespacedValidation: elements are matched by {namespace}local.
func TestNamespacedValidation(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:t="urn:t" targetNamespace="urn:t" elementFormDefault="qualified">
  <xsd:complexType name="T">
    <xsd:sequence><xsd:element name="x" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
  <xsd:element name="r" type="t:T"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	good, _ := dom.ParseString(`<r xmlns="urn:t"><x>v</x></r>`)
	if res := v.ValidateDocument(good); !res.OK() {
		t.Errorf("qualified doc: %v", res.Err())
	}
	// Unqualified child must fail: the schema requires {urn:t}x.
	bad, _ := dom.ParseString(`<r xmlns="urn:t"><x xmlns="">v</x></r>`)
	if res := v.ValidateDocument(bad); res.OK() {
		t.Error("unqualified child accepted")
	}
	// Wrong root namespace has no declaration at all.
	wrong, _ := dom.ParseString(`<r><x>v</x></r>`)
	if res := v.ValidateDocument(wrong); res.OK() {
		t.Error("no-namespace root accepted")
	}
}

// TestDeepRecursion: a deeply recursive valid document validates without
// stack trouble.
func TestDeepRecursion(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Nest">
    <xsd:sequence><xsd:element name="nest" type="Nest" minOccurs="0"/></xsd:sequence>
  </xsd:complexType>
  <xsd:element name="nest" type="Nest"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	depth := 3000
	doc, err := dom.ParseString(strings.Repeat("<nest>", depth) + strings.Repeat("</nest>", depth))
	if err != nil {
		t.Fatal(err)
	}
	if res := New(s, nil).ValidateDocument(doc); !res.OK() {
		t.Errorf("deep recursion: %v", res.Err())
	}
}

// TestPatternBoundPast4096: a simple type restricting xs:string by
// a{5000} accepts 5,000 a's and rejects 4,096, on both walks.
func TestPatternBoundPast4096(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="A5000">
    <xsd:restriction base="xsd:string"><xsd:pattern value="a{5000}"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:element name="r" type="A5000"/>
</xsd:schema>`
	s, err := xsd.ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	for _, n := range []int{5000, 4096} {
		doc := "<r>" + strings.Repeat("a", n) + "</r>"
		res := validate(t, v, doc)
		if res.OK() != (n == 5000) {
			t.Errorf("%d a's: valid=%v (%v)", n, res.OK(), res.Err())
		}
		if n == 4096 {
			wantViolation(t, res, "does not match pattern")
		}
		if sres := v.Stream().ValidateBytes([]byte(doc)); sres.OK() != res.OK() {
			t.Errorf("%d a's: stream valid=%v, DOM %v", n, sres.OK(), res.OK())
		}
	}
}
