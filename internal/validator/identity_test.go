package validator

import (
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/xsd"
)

// icSchema declares a purchase order flavored vocabulary with unique, key
// and keyref constraints — the XML Schema Primer's own examples, which the
// paper defers.
const icSchema = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="ItemType">
    <xsd:sequence>
      <xsd:element name="sku" type="xsd:string" minOccurs="0"/>
    </xsd:sequence>
    <xsd:attribute name="partNum" type="xsd:string"/>
    <xsd:attribute name="dept" type="xsd:string"/>
  </xsd:complexType>
  <xsd:complexType name="RefType">
    <xsd:attribute name="part" type="xsd:string" use="required"/>
  </xsd:complexType>
  <xsd:complexType name="OrderType">
    <xsd:sequence>
      <xsd:element name="item" type="ItemType" minOccurs="0" maxOccurs="unbounded"/>
      <xsd:element name="ref" type="RefType" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="order" type="OrderType">
    <xsd:key name="pk">
      <xsd:selector xpath="item"/>
      <xsd:field xpath="@partNum"/>
    </xsd:key>
    <xsd:keyref name="pref" refer="pk">
      <xsd:selector xpath="ref"/>
      <xsd:field xpath="@part"/>
    </xsd:keyref>
    <xsd:unique name="uq">
      <xsd:selector xpath=".//item"/>
      <xsd:field xpath="sku"/>
    </xsd:unique>
  </xsd:element>
</xsd:schema>`

func icValidator(t *testing.T) *Validator {
	t.Helper()
	s, err := xsd.ParseString(icSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(s, nil)
}

func icValidate(t *testing.T, src string) *Result {
	t.Helper()
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return icValidator(t).ValidateDocument(doc)
}

func TestKeyAndKeyrefOK(t *testing.T) {
	res := icValidate(t, `<order>
	  <item partNum="100-AA"><sku>s1</sku></item>
	  <item partNum="200-BB"><sku>s2</sku></item>
	  <ref part="100-AA"/>
	</order>`)
	if !res.OK() {
		t.Fatalf("valid keyed document rejected: %v", res.Err())
	}
}

func TestDuplicateKey(t *testing.T) {
	res := icValidate(t, `<order>
	  <item partNum="100-AA"/>
	  <item partNum="100-AA"/>
	</order>`)
	if res.OK() || !strings.Contains(res.Err().Error(), "duplicate value") {
		t.Errorf("duplicate key: %v", res.Err())
	}
}

func TestMissingKeyField(t *testing.T) {
	res := icValidate(t, `<order><item/></order>`)
	if res.OK() || !strings.Contains(res.Err().Error(), "missing a field") {
		t.Errorf("key with absent field: %v", res.Err())
	}
}

func TestDanglingKeyref(t *testing.T) {
	res := icValidate(t, `<order>
	  <item partNum="100-AA"/>
	  <ref part="999-ZZ"/>
	</order>`)
	if res.OK() || !strings.Contains(res.Err().Error(), "does not match any pk key") {
		t.Errorf("dangling keyref: %v", res.Err())
	}
}

func TestUniqueToleratesAbsentField(t *testing.T) {
	// unique (unlike key) skips nodes without the field.
	res := icValidate(t, `<order>
	  <item partNum="1"><sku>s1</sku></item>
	  <item partNum="2"/>
	  <item partNum="3"/>
	</order>`)
	if !res.OK() {
		t.Fatalf("unique with absent fields: %v", res.Err())
	}
	// But duplicates among present fields are flagged.
	res = icValidate(t, `<order>
	  <item partNum="1"><sku>same</sku></item>
	  <item partNum="2"><sku>same</sku></item>
	</order>`)
	if res.OK() || !strings.Contains(res.Err().Error(), "unique uq") {
		t.Errorf("duplicate unique: %v", res.Err())
	}
}
