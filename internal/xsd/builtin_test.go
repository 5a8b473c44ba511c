package xsd

import (
	"sync"
	"testing"

	"repro/internal/xsdtypes"
)

const twoTypesXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="A"><xsd:restriction base="xsd:string"/></xsd:simpleType>
  <xsd:complexType name="B"><xsd:sequence/></xsd:complexType>
  <xsd:element name="b" type="B"/>
</xsd:schema>`

// TestTypesHoldOnlyDeclared: Types holds the schema's declared global
// types and no built-in, while every built-in and xs:anyType still
// resolves through LookupType.
func TestTypesHoldOnlyDeclared(t *testing.T) {
	s := MustParse(twoTypesXSD)
	if len(s.Types) != 2 || s.Types[QName{Local: "A"}] == nil || s.Types[QName{Local: "B"}] == nil {
		t.Errorf("Types: %v", s.Types)
	}
	for q := range s.Types {
		if q.Space == XSDNamespace {
			t.Errorf("Types holds the built-in %s", q)
		}
	}
	for _, name := range xsdtypes.Names() {
		typ, ok := s.LookupType(QName{Space: XSDNamespace, Local: name})
		st, _ := typ.(*SimpleType)
		if !ok || st == nil || st != s.SimpleTypeOf(name) || st.Builtin == nil || st.Builtin.Name != name {
			t.Errorf("LookupType(xs:%s) = %v, %v", name, typ, ok)
		}
	}
	if typ, ok := s.LookupType(QName{Space: XSDNamespace, Local: "anyType"}); !ok || typ != Type(s.AnyType()) {
		t.Errorf("LookupType(xs:anyType) = %v, %v", typ, ok)
	}
	if _, ok := s.LookupType(QName{Space: XSDNamespace, Local: "A"}); ok {
		t.Error("LookupType resolved a declared local name in the XSD namespace")
	}
}

// TestBuiltinsShared: schemas parsed concurrently resolve a built-in to
// one shared *SimpleType, and each keeps its own xs:anyType, whose
// content model numbers names with that schema's interner.
func TestBuiltinsShared(t *testing.T) {
	const n = 4
	schemas := make([]*Schema, n)
	var wg sync.WaitGroup
	for i := range schemas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := MustParse(twoTypesXSD)
			if _, err := s.Types[QName{Local: "A"}].(*SimpleType).Parse("x"); err != nil {
				t.Error(err)
			}
			s.AnyType().Matcher(s)
			schemas[i] = s
		}(i)
	}
	wg.Wait()
	str := QName{Space: XSDNamespace, Local: "string"}
	for i, s := range schemas {
		a := s.Types[QName{Local: "A"}].(*SimpleType)
		if st, _ := s.LookupType(str); a.Base != st || st != schemas[0].SimpleTypeOf("string") {
			t.Errorf("schema %d: xs:string is not the shared built-in", i)
		}
		for _, other := range schemas[:i] {
			if s.AnyType() == other.AnyType() {
				t.Errorf("schema %d shares its xs:anyType", i)
			}
		}
	}
}

// TestNewSchemaAllocs: an empty schema costs a few allocations, not one
// per built-in.
func TestNewSchemaAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { NewSchema("urn:t") }); n > 20 {
		t.Errorf("NewSchema makes %v allocations, want at most 20", n)
	}
}
