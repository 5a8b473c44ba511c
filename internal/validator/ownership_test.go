package validator_test

// The stream machine parses simple values from a view of the frame's text
// buffer, which the next frame reuses. These tests split element text
// across chunks (a CDATA section, an entity reference), so it is
// buffered, and check that what outlives the frame was copied: the
// observer's values, the ID tables and the identity constraints' keys.

import (
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// splitOrder is a purchase order whose items' text is split: the frames
// that parse it are reused from item to item.
func splitOrder(items int) string {
	var b strings.Builder
	b.WriteString(`<purchaseOrder orderDate="1999-10-20"><shipTo country="US"><name>Alice <![CDATA[Smith]]></name><street>123 Maple&#32;Street</street><city>Mill Valley</city><state>CA</state><zip>9<![CDATA[0952]]></zip></shipTo>`)
	b.WriteString(`<billTo country="US"><name>Robert&#32;Smith</name><street>8 Oak Avenue</street><city>Old Town</city><state>PA</state><zip>95819</zip></billTo><items>`)
	for i := range items {
		name := strings.Repeat("x", i%7)
		b.WriteString(`<item partNum="926-AA"><productName>Lawn` + name + `<![CDATA[mower]]>&amp;co</productName>`)
		b.WriteString(`<quantity>` + string(rune('1'+i%9)) + `<![CDATA[0]]></quantity><USPrice>1<![CDATA[48.9]]>` + string(rune('0'+i%10)) + `</USPrice>`)
		b.WriteString(`<shipDate>1999-<![CDATA[12-2]]>` + string(rune('1'+i%8)) + `</shipDate></item>`)
	}
	b.WriteString(`</items></purchaseOrder>`)
	return b.String()
}

// TestStreamDecodeOwnsValues: bind keeps the values the machine hands its
// observer, so a stream decode must give the values a DOM decode gives
// after every frame's buffer has been reused.
func TestStreamDecodeOwnsValues(t *testing.T) {
	s, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := bind.New(s, validator.New(s, nil))
	src := splitOrder(20)
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	want, res := b.DecodeDocument(doc)
	if !res.OK() {
		t.Fatal(res.Err())
	}
	got, res, err := b.DecodeStreamBytes([]byte(src))
	if err != nil || !res.OK() {
		t.Fatal(err, res.Err())
	}
	wantJSON, gotJSON := string(b.JSON(want)), string(b.JSON(got))
	if gotJSON != wantJSON {
		t.Fatalf("stream decode:\n%s\nDOM decode:\n%s", gotJSON, wantJSON)
	}
	for _, v := range []string{`"Alice Smith"`, `"Lawnxxxxxxmower\u0026co"`, `148.97`, `"1999-12-28"`} {
		if !strings.Contains(gotJSON, v) {
			t.Errorf("decoded JSON lacks %s:\n%s", v, gotJSON)
		}
	}
}

const idsXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="id" type="xsd:ID" maxOccurs="unbounded"/>
        <xsd:element name="ref" type="xsd:IDREF" minOccurs="0" maxOccurs="unbounded"/>
        <xsd:element name="refs" type="xsd:IDREFS" minOccurs="0"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>`

// TestStreamIDsFromSplitText: the ID tables keep their strings past the
// frame, so a duplicate ID is still found, and IDREFs still resolve, once
// the buffer the IDs were parsed from holds other text.
func TestStreamIDsFromSplitText(t *testing.T) {
	s, err := xsd.ParseString(idsXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := validator.New(s, nil)
	src := `<r><id> a<![CDATA[b]]> </id><id>c&#100;</id><id>xy</id><id>a<![CDATA[b]]></id>` +
		`<ref>c<![CDATA[d]]></ref><ref>zz</ref><refs> ab <![CDATA[cd]]>  xy </refs></r>`
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	want := verdict(v.ValidateDocument(doc))
	got := verdict(v.Stream().ValidateBytes([]byte(src)))
	if pinned := `/r/id[4]: duplicate ID "ab" (first declared at /r/id)` + "\n" +
		`/r/ref[2]: IDREF "zz" does not match any ID`; got != pinned || want != pinned {
		t.Fatalf("stream verdict:\n%s\nDOM verdict:\n%s\nwant:\n%s", got, want, pinned)
	}
}

// verdict lists res's violations, one "path: message" a line.
func verdict(res *validator.Result) string {
	var lines []string
	for _, v := range res.Violations {
		lines = append(lines, v.Path+": "+v.Msg)
	}
	return strings.Join(lines, "\n")
}

const keysXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="order">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="item" maxOccurs="unbounded">
          <xsd:complexType><xsd:sequence><xsd:element name="sku" type="xsd:token"/></xsd:sequence></xsd:complexType>
        </xsd:element>
        <xsd:element name="ref" type="xsd:token" minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
    </xsd:complexType>
    <xsd:key name="pk"><xsd:selector xpath="item"/><xsd:field xpath="sku"/></xsd:key>
    <xsd:keyref name="pref" refer="pk"><xsd:selector xpath="ref"/><xsd:field xpath="."/></xsd:keyref>
  </xsd:element>
</xsd:schema>`

// TestStreamKeysFromSplitText: key and keyref fields over element text
// split across chunks match in stream mode as in DOM mode.
func TestStreamKeysFromSplitText(t *testing.T) {
	s, err := xsd.ParseString(keysXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := validator.New(s, nil)
	items := `<item><sku>A<![CDATA[B]]>1</sku></item><item><sku>C&#68;2</sku></item>`
	for _, tc := range []struct{ refs, want string }{
		{`<ref>A<![CDATA[B1]]></ref><ref>CD&#50;</ref>`, ""},
		{`<ref>A<![CDATA[B2]]></ref>`, "/order: keyref pref: value {AB2} does not match any pk key"},
	} {
		src := `<order>` + items + tc.refs + `</order>`
		doc, err := dom.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		want := verdict(v.ValidateDocument(doc))
		got := verdict(v.Stream().ValidateBytes([]byte(src)))
		if got != tc.want || want != tc.want {
			t.Errorf("%s: stream %q, DOM %q, want %q", src, got, want, tc.want)
		}
	}
}

const contentIDsXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="idContent">
    <xsd:simpleContent><xsd:extension base="xsd:ID"><xsd:attribute name="n" type="xsd:string"/></xsd:extension></xsd:simpleContent>
  </xsd:complexType>
  <xsd:complexType name="refsContent">
    <xsd:simpleContent><xsd:extension base="xsd:IDREFS"><xsd:attribute name="n" type="xsd:string"/></xsd:extension></xsd:simpleContent>
  </xsd:complexType>
  <xsd:element name="r">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="id" type="idContent" maxOccurs="unbounded"/>
        <xsd:element name="ref" type="xsd:IDREF" minOccurs="0" maxOccurs="unbounded"/>
        <xsd:element name="refs" type="refsContent" minOccurs="0"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>`

// TestStreamInvalidContentIDs: simple content whose text fails its ID
// or IDREFS type still takes part in ID matching, by its collapsed text:
// a duplicate of an invalid ID is reported, and an invalid IDREFS value's
// items resolve against the IDs, invalid ones included.
func TestStreamInvalidContentIDs(t *testing.T) {
	s, err := xsd.ParseString(contentIDsXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := validator.New(s, nil)
	src := `<r><id> 1<![CDATA[x]]> </id><id>1x</id><id>ok</id><ref>ok</ref>` +
		`<refs>ok <![CDATA[1x]]> zz</refs></r>`
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	want := verdict(v.ValidateDocument(doc))
	got := verdict(v.Stream().ValidateBytes([]byte(src)))
	pinned := strings.Join([]string{
		`/r/id: ID: "1x" is not a valid Name`,
		`/r/id[2]: ID: "1x" is not a valid Name`,
		`/r/id[2]: duplicate ID "1x" (first declared at /r/id)`,
		`/r/refs: IDREFS: IDREF: "1x" is not a valid Name`,
		`/r/refs: IDREF "zz" does not match any ID`,
	}, "\n")
	if got != pinned || want != pinned {
		t.Fatalf("stream verdict:\n%s\nDOM verdict:\n%s\nwant:\n%s", got, want, pinned)
	}
}
