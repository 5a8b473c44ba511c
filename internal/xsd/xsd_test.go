package xsd

import (
	"strings"
	"testing"

	"repro/internal/contentmodel"
	"repro/internal/schemas"
)

func parseSchema(t *testing.T, src string) *Schema {
	t.Helper()
	s, err := ParseString(src, nil)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return s
}

// TestFig2_3PurchaseOrderSchema parses the paper's Figures 2/3 schema and
// checks every component the paper names.
func TestFig2_3PurchaseOrderSchema(t *testing.T) {
	s := parseSchema(t, schemas.PurchaseOrderXSD)

	po, ok := s.LookupElement(QName{Local: "purchaseOrder"})
	if !ok {
		t.Fatal("purchaseOrder element missing")
	}
	pot, ok := po.Type.(*ComplexType)
	if !ok || pot.Name.Local != "PurchaseOrderType" {
		t.Fatalf("purchaseOrder type: %+v", po.Type)
	}

	comment, ok := s.LookupElement(QName{Local: "comment"})
	if !ok {
		t.Fatal("comment element missing")
	}
	if st, ok := comment.Type.(*SimpleType); !ok || st.Builtin == nil || st.Builtin.Name != "string" {
		t.Errorf("comment should be xsd:string, got %v", comment.Type)
	}

	// PurchaseOrderType: sequence of shipTo, billTo, comment?, items +
	// orderDate attribute.
	if pot.Kind != ContentElementOnly {
		t.Errorf("PurchaseOrderType content kind: %v", pot.Kind)
	}
	seq := pot.Particle.Group
	if seq == nil || seq.Kind != Sequence || len(seq.Particles) != 4 {
		t.Fatalf("PurchaseOrderType particle: %v", pot.Particle)
	}
	names := []string{"shipTo", "billTo", "comment", "items"}
	for i, want := range names {
		el := seq.Particles[i].Element
		if el == nil || el.Name.Local != want {
			t.Errorf("sequence member %d: got %+v, want %s", i, el, want)
		}
	}
	if seq.Particles[2].Min != 0 || seq.Particles[2].Max != 1 {
		t.Errorf("comment occurrence: %d..%d", seq.Particles[2].Min, seq.Particles[2].Max)
	}
	if u := pot.FindAttributeUse(QName{Local: "orderDate"}); u == nil {
		t.Error("orderDate attribute missing")
	} else if u.Decl.Type.PrimitiveBuiltin().Name != "date" {
		t.Errorf("orderDate type: %v", u.Decl.Type)
	}

	// USAddress: 5-element sequence + fixed country attribute.
	usa := s.Types[QName{Local: "USAddress"}].(*ComplexType)
	if len(usa.Particle.Group.Particles) != 5 {
		t.Errorf("USAddress members: %d", len(usa.Particle.Group.Particles))
	}
	country := usa.FindAttributeUse(QName{Local: "country"})
	if country == nil || country.Fixed == nil || *country.Fixed != "US" {
		t.Errorf("country attribute: %+v", country)
	}

	// Items: item* with an anonymous complex type carrying partNum:SKU.
	items := s.Types[QName{Local: "Items"}].(*ComplexType)
	item := items.Particle.Group.Particles[0]
	if item.Min != 0 || item.Max != Unbounded {
		t.Errorf("item occurrence: %d..%d", item.Min, item.Max)
	}
	itemType := item.Element.Type.(*ComplexType)
	if !itemType.Name.IsZero() {
		t.Errorf("item type should be anonymous, got %v", itemType.Name)
	}
	partNum := itemType.FindAttributeUse(QName{Local: "partNum"})
	if partNum == nil || !partNum.Required {
		t.Fatalf("partNum: %+v", partNum)
	}
	if partNum.Decl.Type.Name.Local != "SKU" {
		t.Errorf("partNum type: %v", partNum.Decl.Type.Name)
	}

	// The anonymous quantity restriction: positiveInteger,
	// maxExclusive 100.
	quantity := itemType.Particle.Group.Particles[1].Element
	qt := quantity.Type.(*SimpleType)
	if qt.Name.Local != "" || qt.Base.Builtin.Name != "positiveInteger" {
		t.Errorf("quantity type: %+v", qt)
	}
	if qt.Facets.MaxExclusive == nil {
		t.Fatal("quantity maxExclusive missing")
	}
	if err := qt.Validate("99"); err != nil {
		t.Errorf("quantity 99: %v", err)
	}
	if qt.Validate("100") == nil {
		t.Error("quantity 100 should fail maxExclusive")
	}
	if qt.Validate("0") == nil {
		t.Error("quantity 0 should fail positiveInteger")
	}

	// SKU pattern.
	sku := s.Types[QName{Local: "SKU"}].(*SimpleType)
	if err := sku.Validate("926-AA"); err != nil {
		t.Errorf("SKU 926-AA: %v", err)
	}
	if sku.Validate("926-aa") == nil {
		t.Error("SKU 926-aa should fail the pattern")
	}
}

func TestContentModelMatching(t *testing.T) {
	s := parseSchema(t, schemas.PurchaseOrderXSD)
	pot := s.Types[QName{Local: "PurchaseOrderType"}].(*ComplexType)
	m := pot.Matcher(s)
	ok := func(names ...string) bool {
		var in []contentmodel.Symbol
		for _, n := range names {
			in = append(in, contentmodel.Symbol{Local: n})
		}
		_, err := m.Match(in)
		return err == nil
	}
	if !ok("shipTo", "billTo", "comment", "items") {
		t.Error("full sequence should match")
	}
	if !ok("shipTo", "billTo", "items") {
		t.Error("optional comment may be absent")
	}
	if ok("billTo", "shipTo", "items") {
		t.Error("wrong order should fail")
	}
	if ok("shipTo", "billTo", "items", "items") {
		t.Error("duplicate items should fail")
	}
}

func TestTypeExtension(t *testing.T) {
	s := parseSchema(t, schemas.AddressDerivationXSD)
	addr := s.Types[QName{Local: "Address"}].(*ComplexType)
	us := s.Types[QName{Local: "USAddress"}].(*ComplexType)
	if us.Base != Type(addr) || us.DerivedBy != DeriveExtension {
		t.Fatalf("USAddress derivation: base=%v by=%v", us.Base, us.DerivedBy)
	}
	if !us.DerivesFrom(addr) {
		t.Error("DerivesFrom failed")
	}
	// Effective content: name, street, city (inherited) + state, zip.
	m := us.Matcher(s)
	var in []contentmodel.Symbol
	for _, n := range []string{"name", "street", "city", "state", "zip"} {
		in = append(in, contentmodel.Symbol{Local: n})
	}
	if _, err := m.Match(in); err != nil {
		t.Errorf("extended content: %v", err)
	}
	if _, err := m.Match(in[:3]); err == nil {
		t.Error("extension members are required")
	}
}

func TestSubstitutionGroups(t *testing.T) {
	s := parseSchema(t, schemas.AddressDerivationXSD)
	members := s.SubstitutionMembers(QName{Local: "comment"})
	if len(members) != 2 {
		t.Fatalf("comment substitution members: %d", len(members))
	}
	got := []string{members[0].Name.Local, members[1].Name.Local}
	if got[0] != "customerComment" || got[1] != "shipComment" {
		t.Errorf("members: %v", got)
	}
	// CommentBlock accepts any mix of the group.
	cb := s.Types[QName{Local: "CommentBlock"}].(*ComplexType)
	m := cb.Matcher(s)
	in := []contentmodel.Symbol{{Local: "comment"}, {Local: "shipComment"}, {Local: "customerComment"}}
	leaves, err := m.Match(in)
	if err != nil {
		t.Fatalf("substitution match: %v", err)
	}
	// All three match the comment leaf; ResolveChild finds the concrete
	// declarations.
	decl := leaves[1].Data.(*ElementDecl)
	resolved, rerr := s.ResolveChild(decl, QName{Local: "shipComment"})
	if rerr != nil || resolved.Name.Local != "shipComment" {
		t.Errorf("ResolveChild: %v, %v", resolved, rerr)
	}
}

func TestAbstractElements(t *testing.T) {
	s := parseSchema(t, schemas.AddressDerivationXSD)
	nb := s.Types[QName{Local: "NoteBlock"}].(*ComplexType)
	m := nb.Matcher(s)
	// The abstract head itself cannot appear...
	if _, err := m.Match([]contentmodel.Symbol{{Local: "note"}}); err == nil {
		t.Error("abstract head should not be matchable")
	}
	// ...but its substitution member can.
	if _, err := m.Match([]contentmodel.Symbol{{Local: "shipNote"}}); err != nil {
		t.Errorf("substitution member: %v", err)
	}
	note, _ := s.LookupElement(QName{Local: "note"})
	if _, err := s.ResolveChild(note, QName{Local: "note"}); err == nil {
		t.Error("resolving the abstract head should fail")
	}
}

func TestNamedGroup(t *testing.T) {
	s := parseSchema(t, schemas.NamedGroupXSD)
	def, ok := s.Groups[QName{Local: "AddressGroup"}]
	if !ok {
		t.Fatal("AddressGroup definition missing")
	}
	if def.Particle.Group.Kind != Choice {
		t.Errorf("AddressGroup kind: %v", def.Particle.Group.Kind)
	}
	pot := s.Types[QName{Local: "PurchaseOrderType"}].(*ComplexType)
	first := pot.Particle.Group.Particles[0]
	if first.Group == nil || first.Group.DefName.Local != "AddressGroup" {
		t.Errorf("group reference lost its name: %+v", first)
	}
	m := pot.Matcher(s)
	if _, err := m.Match([]contentmodel.Symbol{{Local: "twoAddr"}, {Local: "items"}}); err != nil {
		t.Errorf("named group content: %v", err)
	}
}

func TestSimpleContentExtension(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Price">
    <xsd:simpleContent>
      <xsd:extension base="xsd:decimal">
        <xsd:attribute name="currency" type="xsd:string" use="required"/>
      </xsd:extension>
    </xsd:simpleContent>
  </xsd:complexType>
</xsd:schema>`
	s := parseSchema(t, src)
	price := s.Types[QName{Local: "Price"}].(*ComplexType)
	if price.Kind != ContentSimple {
		t.Fatalf("Price kind: %v", price.Kind)
	}
	if price.SimpleContentType.PrimitiveBuiltin().Name != "decimal" {
		t.Errorf("Price content type: %v", price.SimpleContentType)
	}
	if u := price.FindAttributeUse(QName{Local: "currency"}); u == nil || !u.Required {
		t.Errorf("currency attribute: %+v", u)
	}
}

func TestSimpleContentRestrictionFacets(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Price">
    <xsd:simpleContent>
      <xsd:extension base="xsd:decimal">
        <xsd:attribute name="currency" type="xsd:string"/>
      </xsd:extension>
    </xsd:simpleContent>
  </xsd:complexType>
  <xsd:complexType name="SmallPrice">
    <xsd:simpleContent>
      <xsd:restriction base="Price">
        <xsd:maxInclusive value="100"/>
      </xsd:restriction>
    </xsd:simpleContent>
  </xsd:complexType>
</xsd:schema>`
	s := parseSchema(t, src)
	sp := s.Types[QName{Local: "SmallPrice"}].(*ComplexType)
	if err := sp.SimpleContentType.Validate("99.5"); err != nil {
		t.Errorf("99.5: %v", err)
	}
	if sp.SimpleContentType.Validate("100.5") == nil {
		t.Error("100.5 should violate maxInclusive")
	}
	// The currency attribute is inherited through the restriction.
	if sp.FindAttributeUse(QName{Local: "currency"}) == nil {
		t.Error("currency attribute not inherited")
	}
}

func TestListAndUnionTypes(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Sizes">
    <xsd:list itemType="xsd:int"/>
  </xsd:simpleType>
  <xsd:simpleType name="SizeOrWord">
    <xsd:union memberTypes="xsd:int">
      <xsd:simpleType>
        <xsd:restriction base="xsd:string">
          <xsd:enumeration value="small"/>
          <xsd:enumeration value="large"/>
        </xsd:restriction>
      </xsd:simpleType>
    </xsd:union>
  </xsd:simpleType>
  <xsd:simpleType name="ShortSizes">
    <xsd:restriction base="Sizes">
      <xsd:maxLength value="3"/>
    </xsd:restriction>
  </xsd:simpleType>
</xsd:schema>`
	s := parseSchema(t, src)
	sizes := s.Types[QName{Local: "Sizes"}].(*SimpleType)
	if sizes.Variety != VarietyList {
		t.Fatalf("Sizes variety: %v", sizes.Variety)
	}
	if err := sizes.Validate("1 2 3"); err != nil {
		t.Errorf("1 2 3: %v", err)
	}
	if sizes.Validate("1 x 3") == nil {
		t.Error("non-int item should fail")
	}
	sow := s.Types[QName{Local: "SizeOrWord"}].(*SimpleType)
	for _, ok := range []string{"42", "small", "large"} {
		if err := sow.Validate(ok); err != nil {
			t.Errorf("union %q: %v", ok, err)
		}
	}
	if sow.Validate("medium") == nil {
		t.Error("medium should fail the union")
	}
	short := s.Types[QName{Local: "ShortSizes"}].(*SimpleType)
	if err := short.Validate("1 2 3"); err != nil {
		t.Errorf("3 items: %v", err)
	}
	if short.Validate("1 2 3 4") == nil {
		t.Error("4 items should exceed maxLength 3")
	}
}

func TestIncludeViaLoader(t *testing.T) {
	main := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:include schemaLocation="addr.xsd"/>
  <xsd:element name="order" type="Address"/>
</xsd:schema>`
	addr := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Address">
    <xsd:sequence><xsd:element name="city" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
</xsd:schema>`
	s, err := Parse([]byte(main), &ParseOptions{Resolver: MapLoader{"addr.xsd": []byte(addr)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Types[QName{Local: "Address"}]; !ok {
		t.Error("included type missing")
	}
	// Without a loader, include must fail.
	if _, err := ParseString(main, nil); err == nil {
		t.Error("include without loader should fail")
	}
}

func TestTargetNamespace(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:po="urn:po" targetNamespace="urn:po" elementFormDefault="qualified">
  <xsd:element name="order" type="po:OrderType"/>
  <xsd:complexType name="OrderType">
    <xsd:sequence>
      <xsd:element name="id" type="xsd:int"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>`
	s := parseSchema(t, src)
	if s.TargetNamespace != "urn:po" {
		t.Fatalf("tns: %q", s.TargetNamespace)
	}
	order, ok := s.LookupElement(QName{Space: "urn:po", Local: "order"})
	if !ok {
		t.Fatal("order element missing in target namespace")
	}
	ot := order.Type.(*ComplexType)
	// elementFormDefault=qualified: the local element is qualified.
	id := ot.Particle.Group.Particles[0].Element
	if id.Name.Space != "urn:po" {
		t.Errorf("local element namespace: %q", id.Name.Space)
	}
}

func TestUnqualifiedLocals(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:po="urn:po" targetNamespace="urn:po">
  <xsd:complexType name="T">
    <xsd:sequence><xsd:element name="child" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
  <xsd:element name="root" type="po:T"/>
</xsd:schema>`
	s := parseSchema(t, src)
	root, _ := s.LookupElement(QName{Space: "urn:po", Local: "root"})
	child := root.Type.(*ComplexType).Particle.Group.Particles[0].Element
	if child.Name.Space != "" {
		t.Errorf("unqualified local got namespace %q", child.Name.Space)
	}
}

func TestErrorCases(t *testing.T) {
	cases := []struct {
		src    string
		substr string
	}{
		{`<x/>`, "not xsd:schema"},
		{`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
			<xsd:element name="a" type="Missing"/></xsd:schema>`, "undeclared type"},
		{`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
			<xsd:element name="a" type="xsd:string"/>
			<xsd:element name="a" type="xsd:int"/></xsd:schema>`, "duplicate"},
		{`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
			<xsd:complexType name="T"><xsd:sequence>
			<xsd:element name="e" type="xsd:string" minOccurs="3" maxOccurs="2"/>
			</xsd:sequence></xsd:complexType></xsd:schema>`, "maxOccurs"},
		{`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
			<xsd:simpleType name="S">
			<xsd:restriction base="xsd:int"><xsd:minInclusive value="abc"/></xsd:restriction>
			</xsd:simpleType></xsd:schema>`, "not valid against the base"},
		{`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
			<xsd:simpleType name="S">
			<xsd:restriction base="xsd:string"><xsd:pattern value="[unclosed"/></xsd:restriction>
			</xsd:simpleType></xsd:schema>`, "xsdregex"},
		{`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
			<xsd:simpleType name="A"><xsd:restriction base="B"/></xsd:simpleType>
			<xsd:simpleType name="B"><xsd:restriction base="A"/></xsd:simpleType>
			</xsd:schema>`, "cycle"},
		{`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
			<xsd:complexType name="T"><xsd:choice>
			<xsd:element name="a" type="xsd:string"/>
			<xsd:sequence><xsd:element name="a" type="xsd:string"/><xsd:element name="b" type="xsd:string"/></xsd:sequence>
			</xsd:choice></xsd:complexType></xsd:schema>`, "unique particle attribution"},
	}
	for _, c := range cases {
		_, err := ParseString(c.src, nil)
		if err == nil {
			t.Errorf("expected error containing %q, got nil", c.substr)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("error %q does not contain %q", err, c.substr)
		}
	}
}

func TestRecursiveType(t *testing.T) {
	// Recursion through element content is legal.
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Tree">
    <xsd:sequence>
      <xsd:element name="label" type="xsd:string"/>
      <xsd:element name="child" type="Tree" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="tree" type="Tree"/>
</xsd:schema>`
	s := parseSchema(t, src)
	tree := s.Types[QName{Local: "Tree"}].(*ComplexType)
	child := tree.Particle.Group.Particles[1].Element
	if child.Type != Type(tree) {
		t.Error("recursive type reference not resolved to the same component")
	}
}

func TestWildcardParsing(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t" xmlns:t="urn:t">
  <xsd:complexType name="Open">
    <xsd:sequence>
      <xsd:element name="head" type="xsd:string" form="qualified"/>
      <xsd:any namespace="##other" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
    <xsd:anyAttribute namespace="##any"/>
  </xsd:complexType>
</xsd:schema>`
	s := parseSchema(t, src)
	open := s.Types[QName{Space: "urn:t", Local: "Open"}].(*ComplexType)
	wild := open.Particle.Group.Particles[1].Wildcard
	if wild == nil || wild.Kind != contentmodel.WildOther || wild.TargetNS != "urn:t" {
		t.Fatalf("wildcard: %+v", wild)
	}
	if open.AttrWildcard == nil || open.AttrWildcard.Kind != contentmodel.WildAny {
		t.Errorf("attribute wildcard: %+v", open.AttrWildcard)
	}
}

func TestAttributeGroupAndGlobalAttribute(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:attribute name="lang" type="xsd:language"/>
  <xsd:attributeGroup name="Common">
    <xsd:attribute ref="lang"/>
    <xsd:attribute name="id" type="xsd:ID" use="required"/>
  </xsd:attributeGroup>
  <xsd:complexType name="T">
    <xsd:sequence/>
    <xsd:attributeGroup ref="Common"/>
  </xsd:complexType>
</xsd:schema>`
	s := parseSchema(t, src)
	tt := s.Types[QName{Local: "T"}].(*ComplexType)
	if len(tt.AttributeUses) != 2 {
		t.Fatalf("attribute uses: %d", len(tt.AttributeUses))
	}
	if u := tt.FindAttributeUse(QName{Local: "id"}); u == nil || !u.Required {
		t.Errorf("id use: %+v", u)
	}
	if u := tt.FindAttributeUse(QName{Local: "lang"}); u == nil || u.Decl.Type.PrimitiveBuiltin().Name != "language" {
		t.Errorf("lang use: %+v", u)
	}
}

func TestAnonymousTypeOrder(t *testing.T) {
	s := parseSchema(t, schemas.PurchaseOrderXSD)
	anon := s.AnonymousTypes()
	// item's complex type and quantity's simple type.
	if len(anon) != 2 {
		t.Fatalf("anonymous types: %d", len(anon))
	}
}

func TestAllGroupSchema(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="T">
    <xsd:all>
      <xsd:element name="a" type="xsd:string"/>
      <xsd:element name="b" type="xsd:string" minOccurs="0"/>
    </xsd:all>
  </xsd:complexType>
</xsd:schema>`
	s := parseSchema(t, src)
	tt := s.Types[QName{Local: "T"}].(*ComplexType)
	m := tt.Matcher(s)
	if _, err := m.Match([]contentmodel.Symbol{{Local: "b"}, {Local: "a"}}); err != nil {
		t.Errorf("all group permutation: %v", err)
	}
}
