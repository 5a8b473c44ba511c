package validator

import (
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/xsd"
)

// scopeSchema has types in urn:t for xsi:type to name. group carries an
// identity constraint, so each group subtree is an identity scope.
const scopeSchema = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" xmlns:t="urn:t" targetNamespace="urn:t" elementFormDefault="qualified">
  <xs:complexType name="Base">
    <xs:sequence><xs:element name="a" type="xs:string"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="Derived">
    <xs:complexContent><xs:extension base="t:Base">
      <xs:sequence><xs:element name="b" type="xs:string"/></xs:sequence>
    </xs:extension></xs:complexContent>
  </xs:complexType>
  <xs:element name="v" type="t:Base"/>
  <xs:element name="doc">
    <xs:complexType>
      <xs:choice maxOccurs="unbounded">
        <xs:element ref="t:v"/>
        <xs:element name="wrap">
          <xs:complexType><xs:sequence><xs:element ref="t:v" maxOccurs="unbounded"/></xs:sequence></xs:complexType>
        </xs:element>
        <xs:element name="group">
          <xs:complexType><xs:sequence><xs:element ref="t:v" maxOccurs="unbounded"/></xs:sequence></xs:complexType>
          <xs:unique name="u"><xs:selector xpath="t:v"/><xs:field xpath="t:a"/></xs:unique>
        </xs:element>
      </xs:choice>
    </xs:complexType>
  </xs:element>
</xs:schema>`

// TestXsiTypeNamespaceScope resolves xsi:type prefixes declared on
// ancestors: shadowed by an inner declaration and back in scope after it,
// seen from inside an identity scope, and found above a ValidateElement
// anchor.
func TestXsiTypeNamespaceScope(t *testing.T) {
	s, err := xsd.ParseString(scopeSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	const derived = `<v xsi:type="t:Derived"><a>1</a><b>2</b></v>`
	src := `<doc xmlns="urn:t" xmlns:t="urn:t" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">` +
		derived +
		`<wrap xmlns:t="urn:wrong">` + derived + `</wrap>` +
		derived +
		`<group>` + derived + `</group>` +
		`<wrap>` + strings.Repeat(derived, 20) + `</wrap>` +
		`</doc>`
	streamDiff(t, v, "xsi:type scope", src)
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	res := v.ValidateDocument(doc)
	if len(res.Violations) != 1 || res.Violations[0].Path != "/doc/wrap/v" ||
		!strings.Contains(res.Violations[0].Msg, "unknown type") {
		t.Fatalf("want one unknown-type violation at /doc/wrap/v (t rebound there), got %v", res.Violations)
	}

	decl, ok := s.LookupElement(xsd.QName{Space: "urn:t", Local: "v"})
	if !ok {
		t.Fatal("no global v")
	}
	wraps := doc.DocumentElement().GetElementsByTagNameNS("urn:t", "wrap")
	inner := wraps[len(wraps)-1].FirstChildElement("v")
	if res := v.ValidateElement(inner, decl); !res.OK() {
		t.Errorf("ValidateElement below the declaring root: %v", res.Violations)
	}
}
