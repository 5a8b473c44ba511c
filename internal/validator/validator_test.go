package validator

import (
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/xsd"
)

func poValidator(t *testing.T) *Validator {
	t.Helper()
	s, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(s, nil)
}

// validate parses and validates, failing the test on parse errors.
func validate(t *testing.T, v *Validator, src string) *Result {
	t.Helper()
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return v.ValidateDocument(doc)
}

// wantViolation asserts an invalid result whose messages mention substr.
func wantViolation(t *testing.T, res *Result, substr string) {
	t.Helper()
	if res.OK() {
		t.Errorf("expected violation containing %q, document accepted", substr)
		return
	}
	for _, v := range res.Violations {
		if strings.Contains(v.Error(), substr) {
			return
		}
	}
	t.Errorf("no violation contains %q; got:\n%v", substr, res.Err())
}

// TestFig1DocumentIsValid: the paper's Figure 1 document is valid against
// the Figures 2/3 schema.
func TestFig1DocumentIsValid(t *testing.T) {
	v := poValidator(t)
	res := validate(t, v, schemas.PurchaseOrderDoc)
	if !res.OK() {
		t.Fatalf("Fig. 1 document should be valid:\n%v", res.Err())
	}
}

func TestMissingRequiredChild(t *testing.T) {
	v := poValidator(t)
	// No billTo.
	src := `<purchaseOrder>
	  <shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>
	  <items/>
	</purchaseOrder>`
	wantViolation(t, validate(t, v, src), "billTo")
}

func TestWrongChildOrder(t *testing.T) {
	v := poValidator(t)
	src := `<purchaseOrder>
	  <billTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo>
	  <shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>
	  <items/>
	</purchaseOrder>`
	wantViolation(t, validate(t, v, src), "unexpected element")
}

func TestUnknownRootElement(t *testing.T) {
	v := poValidator(t)
	wantViolation(t, validate(t, v, `<order/>`), "no global declaration")
}

func TestSimpleTypeViolations(t *testing.T) {
	v := poValidator(t)
	base := func(quantity, price, partNum, date string) string {
		return `<purchaseOrder>
	  <shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>
	  <billTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo>
	  <items><item partNum="` + partNum + `">
	    <productName>p</productName>
	    <quantity>` + quantity + `</quantity>
	    <USPrice>` + price + `</USPrice>
	    ` + date + `
	  </item></items>
	</purchaseOrder>`
	}
	// All good.
	if res := validate(t, v, base("5", "9.99", "926-AA", "")); !res.OK() {
		t.Errorf("valid item rejected: %v", res.Err())
	}
	// quantity over maxExclusive 100.
	wantViolation(t, validate(t, v, base("100", "9.99", "926-AA", "")), "must be < 100")
	// quantity zero violates positiveInteger.
	wantViolation(t, validate(t, v, base("0", "9.99", "926-AA", "")), "must be >= 1")
	// Non-decimal price.
	wantViolation(t, validate(t, v, base("5", "cheap", "926-AA", "")), "USPrice")
	// SKU pattern.
	wantViolation(t, validate(t, v, base("5", "9.99", "926-aa", "")), "pattern")
	// Bad date.
	wantViolation(t, validate(t, v, base("5", "9.99", "926-AA", "<shipDate>next week</shipDate>")), "shipDate")
}

func TestAttributeValidation(t *testing.T) {
	v := poValidator(t)
	// Missing required partNum.
	src := `<purchaseOrder>
	  <shipTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo>
	  <billTo><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo>
	  <items><item>
	    <productName>p</productName><quantity>1</quantity><USPrice>1</USPrice>
	  </item></items>
	</purchaseOrder>`
	wantViolation(t, validate(t, v, src), "required attribute \"partNum\"")

	// Undeclared attribute.
	src2 := strings.Replace(schemas.PurchaseOrderDoc, `<purchaseOrder orderDate="1999-10-20">`,
		`<purchaseOrder orderDate="1999-10-20" bogus="x">`, 1)
	wantViolation(t, validate(t, v, src2), `"bogus" is not declared`)

	// Fixed country attribute.
	src3 := strings.Replace(schemas.PurchaseOrderDoc, `<shipTo country="US">`, `<shipTo country="DE">`, 1)
	wantViolation(t, validate(t, v, src3), "fixed value")

	// Bad orderDate.
	src4 := strings.Replace(schemas.PurchaseOrderDoc, `orderDate="1999-10-20"`, `orderDate="tomorrow"`, 1)
	wantViolation(t, validate(t, v, src4), "orderDate")
}

func TestTextInElementOnlyContent(t *testing.T) {
	v := poValidator(t)
	src := strings.Replace(schemas.PurchaseOrderDoc, `<items>`, `<items>stray text`, 1)
	wantViolation(t, validate(t, v, src), "character data")
}

func TestTooManyOccurrences(t *testing.T) {
	v := poValidator(t)
	src := strings.Replace(schemas.PurchaseOrderDoc,
		`<comment>Hurry, my lawn is going wild</comment>`,
		`<comment>one</comment><comment>two</comment>`, 1)
	wantViolation(t, validate(t, v, src), "unexpected element comment")
}

func TestXsiType(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Base">
    <xsd:sequence><xsd:element name="a" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Derived">
    <xsd:complexContent><xsd:extension base="Base">
      <xsd:sequence><xsd:element name="b" type="xsd:string"/></xsd:sequence>
    </xsd:extension></xsd:complexContent>
  </xsd:complexType>
  <xsd:complexType name="Other">
    <xsd:sequence><xsd:element name="c" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
  <xsd:element name="root" type="Base"/>
</xsd:schema>`
	s, err := xsd.ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	xsiNS := `xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"`
	// Derived content under xsi:type.
	good := `<root ` + xsiNS + ` xsi:type="Derived"><a>x</a><b>y</b></root>`
	if res := validate(t, v, good); !res.OK() {
		t.Errorf("xsi:type=Derived: %v", res.Err())
	}
	// Derived content without xsi:type is invalid.
	wantViolation(t, validate(t, v, `<root><a>x</a><b>y</b></root>`), "unexpected element b")
	// Unrelated type.
	wantViolation(t, validate(t, v, `<root `+xsiNS+` xsi:type="Other"><c>z</c></root>`), "does not derive")
	// Unknown type.
	wantViolation(t, validate(t, v, `<root `+xsiNS+` xsi:type="Nope"><a>x</a></root>`), "unknown type")
}

func TestXsiNil(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="maybe" type="xsd:int" nillable="true"/>
  <xsd:element name="must" type="xsd:int"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	xsiNS := `xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"`
	if res := validate(t, v, `<maybe `+xsiNS+` xsi:nil="true"/>`); !res.OK() {
		t.Errorf("nilled element: %v", res.Err())
	}
	wantViolation(t, validate(t, v, `<maybe `+xsiNS+` xsi:nil="true">5</maybe>`), "must be empty")
	wantViolation(t, validate(t, v, `<must `+xsiNS+` xsi:nil="true"/>`), "non-nillable")
}

// TestXsiNilValidatesAttributes: a nilled element's attributes are still
// validated (XSD 1.0 Part 1 §3.3.4, Element Locally Valid (Complex Type)
// clauses 3–4 and (Type) clause 3.1.1), and nil is refused on a declaration
// with a fixed value (clause 3.2.2). Both walks give the same messages in
// the same order.
func TestXsiNilValidatesAttributes(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="e" nillable="true">
    <xsd:complexType>
      <xsd:sequence><xsd:element name="c" type="xsd:string" minOccurs="0"/></xsd:sequence>
      <xsd:attribute name="id" type="xsd:int" use="required"/>
    </xsd:complexType>
  </xsd:element>
  <xsd:element name="s" type="xsd:int" nillable="true"/>
  <xsd:element name="f" type="xsd:string" nillable="true" fixed="A"/>
</xsd:schema>`
	s, err := xsd.ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	xsiNS := `xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"`
	for _, tc := range []struct {
		src  string
		want []string
	}{
		{`<e ` + xsiNS + ` xsi:nil="true" id="5"/>`, nil},
		{`<e ` + xsiNS + ` xsi:nil="true"/>`, []string{`required attribute "id" is missing`}},
		{`<e ` + xsiNS + ` xsi:nil="true" id="abc" bogus="1"><c/></e>`, []string{
			`attribute "id": int: bad digit 'a' in decimal "abc"`,
			`attribute "bogus" is not declared for this element`,
			`nilled element must be empty`,
		}},
		{`<s ` + xsiNS + ` xsi:nil="true" a="1">7</s>`, []string{
			`nilled element must be empty`,
			`attribute "a" is not allowed on a simple-type element`,
		}},
		{`<f ` + xsiNS + ` xsi:nil="true"/>`, []string{"xsi:nil on an element with a fixed value"}},
	} {
		res := validate(t, v, tc.src)
		var got []string
		for _, viol := range res.Violations {
			got = append(got, viol.Msg)
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s:\n  got  %q\n  want %q", tc.src, got, tc.want)
		}
		streamDiff(t, v, tc.src, tc.src)
	}
}

func TestSubstitutionGroupValidation(t *testing.T) {
	s, err := xsd.ParseString(schemas.AddressDerivationXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	if res := validate(t, v, `<commentBlock><comment>a</comment><shipComment>b</shipComment></commentBlock>`); !res.OK() {
		t.Errorf("substitution members: %v", res.Err())
	}
	// The abstract head cannot appear.
	wantViolation(t, validate(t, v, `<noteBlock><note>x</note></noteBlock>`), "")
	wantViolation(t, validate(t, v, `<note>x</note>`), "abstract")
	if res := validate(t, v, `<noteBlock><shipNote>x</shipNote></noteBlock>`); !res.OK() {
		t.Errorf("abstract substitution member: %v", res.Err())
	}
}

func TestEmptyContent(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="E"><xsd:attribute name="k" type="xsd:string"/></xsd:complexType>
  <xsd:element name="empty" type="E"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	if res := validate(t, v, `<empty k="v"/>`); !res.OK() {
		t.Errorf("empty content: %v", res.Err())
	}
	wantViolation(t, validate(t, v, `<empty>text</empty>`), "empty content")
	wantViolation(t, validate(t, v, `<empty><x/></empty>`), "empty content")
}

// TestEmptyContentCharacterChildren: empty content admits no character
// children, white space included (XML Schema Part 1 §3.4.4, clause 2.1),
// but admits comments; the DOM and the streaming entry points agree.
func TestEmptyContentCharacterChildren(t *testing.T) {
	s, err := xsd.ParseString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="e"><xsd:complexType/></xsd:element>
</xsd:schema>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	for _, tc := range []struct {
		doc   string
		valid bool
	}{
		{"<e> </e>", false},
		{"<e>\n</e>", false},
		{"<e/>", true},
		{"<e></e>", true},
		{"<e><!--c--></e>", true},
	} {
		for name, res := range map[string]*Result{
			"dom":    validate(t, v, tc.doc),
			"stream": v.Stream().ValidateBytes([]byte(tc.doc)),
		} {
			if res.OK() != tc.valid {
				t.Errorf("%s: %q: valid=%v, want %v: %v", name, tc.doc, res.OK(), tc.valid, res.Violations)
			}
			if !tc.valid && (len(res.Violations) != 1 || res.Violations[0] != (Violation{Path: "/e", Msg: "character data is not allowed in empty content"})) {
				t.Errorf("%s: %q: %v", name, tc.doc, res.Violations)
			}
		}
	}
}

func TestMixedContent(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Para" mixed="true">
    <xsd:sequence>
      <xsd:element name="b" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="p" type="Para"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	if res := validate(t, v, `<p>hello <b>bold</b> world</p>`); !res.OK() {
		t.Errorf("mixed content: %v", res.Err())
	}
}

func TestIDIntegrity(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Node">
    <xsd:attribute name="id" type="xsd:ID" use="required"/>
    <xsd:attribute name="ref" type="xsd:IDREF"/>
  </xsd:complexType>
  <xsd:complexType name="Graph">
    <xsd:sequence><xsd:element name="node" type="Node" maxOccurs="unbounded"/></xsd:sequence>
  </xsd:complexType>
  <xsd:element name="graph" type="Graph"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	if res := validate(t, v, `<graph><node id="a"/><node id="b" ref="a"/></graph>`); !res.OK() {
		t.Errorf("id graph: %v", res.Err())
	}
	wantViolation(t, validate(t, v, `<graph><node id="a"/><node id="a"/></graph>`), "duplicate ID")
	wantViolation(t, validate(t, v, `<graph><node id="a" ref="zz"/></graph>`), "does not match any ID")
}

func TestWildcardValidation(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="known" type="xsd:int"/>
  <xsd:complexType name="Open">
    <xsd:sequence>
      <xsd:any minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="open" type="Open"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	// Unknown elements pass (lax).
	if res := validate(t, v, `<open><whatever/><more x="1"/></open>`); !res.OK() {
		t.Errorf("lax wildcard: %v", res.Err())
	}
	// Known global declarations are validated.
	wantViolation(t, validate(t, v, `<open><known>not-a-number</known></open>`), "known")
	if res := validate(t, v, `<open><known>42</known></open>`); !res.OK() {
		t.Errorf("valid known child: %v", res.Err())
	}
}

func TestViolationPaths(t *testing.T) {
	v := poValidator(t)
	src := strings.Replace(schemas.PurchaseOrderDoc, `<quantity>1</quantity>
      <USPrice>39.98</USPrice>`, `<quantity>500</quantity>
      <USPrice>39.98</USPrice>`, 1)
	res := validate(t, v, src)
	if res.OK() {
		t.Fatal("expected violation")
	}
	found := false
	for _, viol := range res.Violations {
		if strings.Contains(viol.Path, "item[2]") && strings.Contains(viol.Path, "quantity") {
			found = true
		}
	}
	if !found {
		t.Errorf("violation path should locate item[2]/quantity: %v", res.Err())
	}
}

func TestValidateBytes(t *testing.T) {
	s, _ := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	doc, res := ValidateBytes(s, []byte(schemas.PurchaseOrderDoc))
	if doc == nil || !res.OK() {
		t.Errorf("ValidateBytes: %v", res.Err())
	}
	_, res = ValidateBytes(s, []byte(`<unclosed>`))
	if res.OK() {
		t.Error("parse error should surface as violation")
	}
}

func TestFixedAndDefaultElementValues(t *testing.T) {
	src := `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="version" type="xsd:string" fixed="1.0"/>
</xsd:schema>`
	s, _ := xsd.ParseString(src, nil)
	v := New(s, nil)
	if res := validate(t, v, `<version>1.0</version>`); !res.OK() {
		t.Errorf("matching fixed: %v", res.Err())
	}
	if res := validate(t, v, `<version/>`); !res.OK() {
		t.Errorf("empty fixed element takes the fixed value: %v", res.Err())
	}
	wantViolation(t, validate(t, v, `<version>2.0</version>`), "fixed")
}
