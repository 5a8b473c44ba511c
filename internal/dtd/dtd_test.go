package dtd

import (
	"strings"
	"testing"

	"repro/internal/dom"
)

// poDTD is a DTD rendering of the purchase order vocabulary — the
// weaker description the paper says DTDs give (no value facets, no
// namespaces, limited typing).
const poDTD = `
<!ELEMENT purchaseOrder (shipTo, billTo, comment?, items)>
<!ATTLIST purchaseOrder orderDate CDATA #IMPLIED>
<!ELEMENT shipTo (name, street, city, state, zip)>
<!ATTLIST shipTo country NMTOKEN #FIXED "US">
<!ELEMENT billTo (name, street, city, state, zip)>
<!ATTLIST billTo country NMTOKEN #FIXED "US">
<!ELEMENT comment (#PCDATA)>
<!ELEMENT items (item*)>
<!ELEMENT item (productName, quantity, USPrice, comment?, shipDate?)>
<!ATTLIST item partNum CDATA #REQUIRED>
<!ELEMENT productName (#PCDATA)>
<!ELEMENT quantity (#PCDATA)>
<!ELEMENT USPrice (#PCDATA)>
<!ELEMENT shipDate (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT street (#PCDATA)>
<!ELEMENT city (#PCDATA)>
<!ELEMENT state (#PCDATA)>
<!ELEMENT zip (#PCDATA)>
`

func parseDTD(t *testing.T, root, subset string) *DTD {
	t.Helper()
	d, err := Parse(root, subset)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return d
}

func TestParsePODTD(t *testing.T) {
	d := parseDTD(t, "purchaseOrder", poDTD)
	if len(d.Elements) != 15 {
		t.Errorf("elements: %d", len(d.Elements))
	}
	po := d.Elements["purchaseOrder"]
	if po.Kind != ContentChildren {
		t.Fatalf("purchaseOrder kind: %v", po.Kind)
	}
	if got := po.Model.String(); !strings.Contains(got, "comment?") {
		t.Errorf("model: %s", got)
	}
	item := d.Attlists["item"]
	if len(item) != 1 || item[0].Default != DefaultRequired {
		t.Errorf("item attlist: %+v", item)
	}
	ship := d.Attlists["shipTo"]
	if ship[0].Type != AttNMTOKEN || ship[0].Default != DefaultFixed || ship[0].Value != "US" {
		t.Errorf("shipTo country: %+v", ship[0])
	}
}

func validateDoc(t *testing.T, d *DTD, src string) *Result {
	t.Helper()
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Validate(d, doc)
}

func TestValidDocument(t *testing.T) {
	d := parseDTD(t, "purchaseOrder", poDTD)
	src := `<purchaseOrder>
	  <shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>
	  <billTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo>
	  <items><item partNum="1"><productName>p</productName><quantity>1</quantity><USPrice>1</USPrice></item></items>
	</purchaseOrder>`
	if res := validateDoc(t, d, src); !res.OK() {
		t.Fatalf("valid doc rejected: %v", res.Err())
	}
}

func TestContentModelViolations(t *testing.T) {
	d := parseDTD(t, "purchaseOrder", poDTD)
	// Wrong order.
	src := `<purchaseOrder>
	  <billTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo>
	  <shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>
	  <items/>
	</purchaseOrder>`
	if res := validateDoc(t, d, src); res.OK() {
		t.Error("wrong order accepted")
	}
	// Undeclared element.
	if res := validateDoc(t, d, `<purchaseOrder><mystery/></purchaseOrder>`); res.OK() {
		t.Error("undeclared element accepted")
	}
	// Wrong root.
	if res := validateDoc(t, d, `<items/>`); res.OK() {
		t.Error("wrong root accepted")
	}
}

// TestDTDCannotExpressFacets documents the §1 motivation: the DTD accepts
// values the XML Schema rejects (quantity 500, bad SKU), because DTDs
// cannot express facets — exactly why the paper moved to XML Schema.
func TestDTDCannotExpressFacets(t *testing.T) {
	d := parseDTD(t, "purchaseOrder", poDTD)
	src := `<purchaseOrder>
	  <shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>not-a-zip</zip></shipTo>
	  <billTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo>
	  <items><item partNum="definitely-not-a-SKU"><productName>p</productName><quantity>99999</quantity><USPrice>free!</USPrice></item></items>
	</purchaseOrder>`
	if res := validateDoc(t, d, src); !res.OK() {
		t.Errorf("DTD unexpectedly rejected facet violations: %v", res.Err())
	}
}

func TestAttributeChecks(t *testing.T) {
	d := parseDTD(t, "purchaseOrder", poDTD)
	// Missing required partNum.
	src := `<purchaseOrder>
	  <shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>
	  <billTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo>
	  <items><item><productName>p</productName><quantity>1</quantity><USPrice>1</USPrice></item></items>
	</purchaseOrder>`
	res := validateDoc(t, d, src)
	if res.OK() || !strings.Contains(res.Err().Error(), "partNum") {
		t.Errorf("missing required attribute: %v", res.Err())
	}
	// Fixed violation.
	src2 := strings.Replace(src, `<shipTo>`, `<shipTo country="DE">`, 1)
	src2 = strings.Replace(src2, `<item>`, `<item partNum="1">`, 1)
	res = validateDoc(t, d, src2)
	if res.OK() || !strings.Contains(res.Err().Error(), "fixed value") {
		t.Errorf("fixed attribute: %v", res.Err())
	}
}

func TestIDsAndEnums(t *testing.T) {
	subset := `
<!ELEMENT graph (node*)>
<!ELEMENT node EMPTY>
<!ATTLIST node id ID #REQUIRED ref IDREF #IMPLIED kind (a|b) "a">
`
	d := parseDTD(t, "graph", subset)
	if res := validateDoc(t, d, `<graph><node id="x"/><node id="y" ref="x" kind="b"/></graph>`); !res.OK() {
		t.Fatalf("valid graph: %v", res.Err())
	}
	if res := validateDoc(t, d, `<graph><node id="x"/><node id="x"/></graph>`); res.OK() {
		t.Error("duplicate ID accepted")
	}
	if res := validateDoc(t, d, `<graph><node id="x" ref="zz"/></graph>`); res.OK() {
		t.Error("dangling IDREF accepted")
	}
	if res := validateDoc(t, d, `<graph><node id="x" kind="c"/></graph>`); res.OK() {
		t.Error("bad enum value accepted")
	}
}

func TestMixedContentDTD(t *testing.T) {
	subset := `
<!ELEMENT doc (para*)>
<!ELEMENT para (#PCDATA | em)*>
<!ELEMENT em (#PCDATA)>
`
	d := parseDTD(t, "doc", subset)
	if res := validateDoc(t, d, `<doc><para>text <em>emph</em> more</para></doc>`); !res.OK() {
		t.Fatalf("mixed: %v", res.Err())
	}
	if res := validateDoc(t, d, `<doc><para><para>nested</para></para></doc>`); res.OK() {
		t.Error("disallowed mixed child accepted")
	}
}

func TestEmptyAndAny(t *testing.T) {
	subset := `
<!ELEMENT root (leaf, bag)>
<!ELEMENT leaf EMPTY>
<!ELEMENT bag ANY>
`
	d := parseDTD(t, "root", subset)
	if res := validateDoc(t, d, `<root><leaf/><bag><leaf/></bag></root>`); !res.OK() {
		t.Fatalf("EMPTY/ANY: %v", res.Err())
	}
	if res := validateDoc(t, d, `<root><leaf>content</leaf><bag/></root>`); res.OK() {
		t.Error("EMPTY with content accepted")
	}
}

func TestValidateDocumentFromDoctype(t *testing.T) {
	src := `<!DOCTYPE note [
<!ELEMENT note (to, body)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT body (#PCDATA)>
]>
<note><to>you</to><body>hi</body></note>`
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ValidateDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Errorf("doc with internal DTD: %v", res.Err())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<!ELEMENT a`,
		`<!ELEMENT a (b|c,d)>`,
		`<!ELEMENT a (b)> <!ELEMENT a (c)>`,
		`<!ATTLIST a x BOGUS #IMPLIED>`,
		`<!WHAT>`,
		`<!ELEMENT a ((b,c)|(b,d))> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY> <!ELEMENT d EMPTY>`,
	}
	for _, s := range bad {
		if _, err := Parse("a", s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

func TestEntityAndNotationDecls(t *testing.T) {
	subset := `
<!ENTITY who "World">
<!ENTITY % param "ignored">
<!ENTITY ext SYSTEM "http://x/y">
<!NOTATION gif SYSTEM "image/gif">
<!ELEMENT root EMPTY>
<!ATTLIST root pic NOTATION (gif) #IMPLIED src ENTITY #IMPLIED>
`
	d := parseDTD(t, "root", subset)
	if d.Entities["who"] != "World" {
		t.Errorf("entity: %q", d.Entities["who"])
	}
	if !d.Notations["gif"] {
		t.Error("notation missing")
	}
	if res := validateDoc(t, d, `<root pic="gif" src="who"/>`); !res.OK() {
		t.Errorf("notation/entity attrs: %v", res.Err())
	}
	if res := validateDoc(t, d, `<root pic="png"/>`); res.OK() {
		t.Error("undeclared notation accepted")
	}
	if res := validateDoc(t, d, `<root src="nobody"/>`); res.OK() {
		t.Error("undeclared entity accepted")
	}
}

// TestNotationOutsideItsList: a NOTATION attribute takes only the names
// its declaration lists, not every declared notation, and only declared
// ones (XML 1.0 §3.3.1).
func TestNotationOutsideItsList(t *testing.T) {
	subset := `
<!NOTATION gif SYSTEM "image/gif">
<!NOTATION png SYSTEM "image/png">
<!ELEMENT root EMPTY>
<!ATTLIST root pic NOTATION (gif|svg) #IMPLIED>
`
	d := parseDTD(t, "root", subset)
	if res := validateDoc(t, d, `<root pic="gif"/>`); !res.OK() {
		t.Errorf("listed notation: %v", res.Err())
	}
	if res := validateDoc(t, d, `<root pic="png"/>`); res.OK() {
		t.Error("declared notation outside the list accepted")
	}
	if res := validateDoc(t, d, `<root pic="svg"/>`); res.OK() {
		t.Error("undeclared notation in the list accepted")
	}
}

// TestFirstAttributeDefinitionBinds: of two definitions of one attribute,
// the first is binding and the second ignored (XML 1.0 §3.3).
func TestFirstAttributeDefinitionBinds(t *testing.T) {
	d := parseDTD(t, "a", `<!ELEMENT a EMPTY> <!ATTLIST a x CDATA #IMPLIED> <!ATTLIST a x CDATA #REQUIRED>`)
	if res := validateDoc(t, d, `<a/>`); !res.OK() {
		t.Errorf("second definition applied: %v", res.Err())
	}
}
