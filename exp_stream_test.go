package repro

// E8 — differential testing of the streaming validator against the DOM
// path. The streaming pass must reproduce ValidateBytes' verdicts exactly:
// same accept/reject decision, same violations, same order, same paths and
// messages — over every bundled schema, over generator-produced mutants of
// the paper's purchase order, and over malformed input.

import (
	"fmt"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/validator"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// streamFeaturesXSD exercises the streaming modes the bundled schemas do
// not: empty content, mixed content, nillable elements (including their
// attributes and a fixed value), fixed/default element values, and IDREF
// resolution.
const streamFeaturesXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="doc" type="DocType"/>
  <xsd:complexType name="DocType">
    <xsd:sequence>
      <xsd:element name="marker" minOccurs="0">
        <xsd:complexType>
          <xsd:attribute name="tag" type="xsd:string"/>
        </xsd:complexType>
      </xsd:element>
      <xsd:element name="para" type="ParaType" minOccurs="0" maxOccurs="unbounded"/>
      <xsd:element name="opt" type="xsd:string" nillable="true" minOccurs="0" default="fallback"/>
      <xsd:element name="code" type="xsd:string" fixed="A1" minOccurs="0"/>
      <xsd:element name="node" minOccurs="0" maxOccurs="unbounded">
        <xsd:complexType>
          <xsd:attribute name="id" type="xsd:ID" use="required"/>
          <xsd:attribute name="ref" type="xsd:IDREF"/>
        </xsd:complexType>
      </xsd:element>
      <xsd:element name="e" nillable="true" minOccurs="0">
        <xsd:complexType>
          <xsd:attribute name="id" type="xsd:int" use="required"/>
        </xsd:complexType>
      </xsd:element>
      <xsd:element name="fx" type="xsd:string" nillable="true" fixed="F" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="ParaType" mixed="true">
    <xsd:sequence>
      <xsd:element name="em" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>
`

// interpXSD has two content models that once exceeded the count
// expansion's budget and compiled to a backtracking interpreter: Card's
// xs:all of five members and Log's sequence bounded at 5,000. They now run
// on a member bitset and a counter. Card holds an identity scope (tags'
// unique key), and IDs live inside and outside the cards, so duplicates
// cross the card subtree's edge both ways.
const interpXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="root">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="head" type="xsd:string"/>
        <xsd:element name="card" type="Card" minOccurs="0" maxOccurs="unbounded"/>
        <xsd:element name="log" type="Log" minOccurs="0"/>
        <xsd:element name="ref" minOccurs="0" maxOccurs="unbounded">
          <xsd:complexType>
            <xsd:attribute name="id" type="xsd:ID"/>
            <xsd:attribute name="to" type="xsd:IDREF"/>
          </xsd:complexType>
        </xsd:element>
      </xsd:sequence>
      <xsd:attribute name="rootId" type="xsd:ID"/>
    </xsd:complexType>
  </xsd:element>
  <xsd:complexType name="Card">
    <xsd:all>
      <xsd:element name="a" type="xsd:int"/>
      <xsd:element name="b" type="xsd:string"/>
      <xsd:element name="c" type="xsd:string"/>
      <xsd:element name="d" type="xsd:string" minOccurs="0"/>
      <xsd:element name="tags">
        <xsd:complexType>
          <xsd:sequence>
            <xsd:element name="tag" minOccurs="0" maxOccurs="unbounded">
              <xsd:complexType>
                <xsd:attribute name="k" type="xsd:string"/>
                <xsd:attribute name="id" type="xsd:ID"/>
              </xsd:complexType>
            </xsd:element>
          </xsd:sequence>
        </xsd:complexType>
        <xsd:unique name="tagKey">
          <xsd:selector xpath="tag"/>
          <xsd:field xpath="@k"/>
        </xsd:unique>
      </xsd:element>
    </xsd:all>
    <xsd:attribute name="id" type="xsd:ID"/>
  </xsd:complexType>
  <xsd:complexType name="Log">
    <xsd:sequence>
      <xsd:element name="e" type="xsd:int" maxOccurs="5000"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>
`

// interpLog is a <log> of n <e> entries.
func interpLog(n int) string {
	return "<log>" + strings.Repeat("<e>1</e>", n) + "</log>"
}

// diffCase is one schema+instances differential group.
type diffCase struct {
	name      string
	xsdSrc    string
	instances map[string]string
}

var diffCases = []diffCase{
	{
		name:   "purchase order",
		xsdSrc: schemas.PurchaseOrderXSD,
		instances: map[string]string{
			"paper fig 1":                schemas.PurchaseOrderDoc,
			"empty items":                `<purchaseOrder><shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo><billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo><items/></purchaseOrder>`,
			"unknown root":               `<notAnOrder/>`,
			"bad order date and bad zip": `<purchaseOrder orderDate="soon"><shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>abc</zip></shipTo><billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo><items/></purchaseOrder>`,
			"comment root":               `<comment>standalone</comment>`,
			"nested bad child":           `<purchaseOrder><shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo><billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo><items><item partNum="926-AA"><productName>p</productName><quantity>0</quantity><USPrice>1</USPrice></item></items></purchaseOrder>`,
			"processing quirks":          `<?xml version="1.0"?><!--pre--><purchaseOrder><items/></purchaseOrder>`,
			"bad comment placement":      `<purchaseOrder><comment>early</comment><items/></purchaseOrder>`,
			"order without comment": `<?xml version="1.0"?>
<purchaseOrder orderDate="2003-01-07">
  <shipTo country="US">
    <name>Helen Zoe</name>
    <street>47 Eden Street</street>
    <city>Cambridge</city>
    <state>MA</state>
    <zip>02139</zip>
  </shipTo>
  <billTo country="US">
    <name>Robert Smith</name>
    <street>8 Oak Avenue</street>
    <city>Old Town</city>
    <state>PA</state>
    <zip>95819</zip>
  </billTo>
  <items>
    <item partNum="833-AA">
      <productName>Lapis necklace</productName>
      <quantity>1</quantity>
      <USPrice>99.95</USPrice>
      <shipDate>2003-01-10</shipDate>
    </item>
  </items>
</purchaseOrder>
`,
			"single-item order": `<?xml version="1.0"?>
<purchaseOrder orderDate="2004-06-30">
  <shipTo country="US">
    <name>Ada Byron</name>
    <street>12 Analytical Way</street>
    <city>Palo Alto</city>
    <state>CA</state>
    <zip>94301</zip>
  </shipTo>
  <billTo country="US">
    <name>Ada Byron</name>
    <street>12 Analytical Way</street>
    <city>Palo Alto</city>
    <state>CA</state>
    <zip>94301</zip>
  </billTo>
  <items>
    <item partNum="455-BX">
      <productName>Difference engine kit</productName>
      <quantity>2</quantity>
      <USPrice>450.00</USPrice>
    </item>
  </items>
</purchaseOrder>
`,
		},
	},
	{
		name:   "evolved purchase order",
		xsdSrc: schemas.EvolvedPurchaseOrderXSD,
		instances: map[string]string{
			"single address":      `<purchaseOrder><singAddr country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></singAddr><items/></purchaseOrder>`,
			"two addresses":       `<purchaseOrder><twoAddr><first country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></first><second country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></second></twoAddr><items/></purchaseOrder>`,
			"both alternatives":   `<purchaseOrder><singAddr country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></singAddr><twoAddr><first country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></first><second country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></second></twoAddr><items/></purchaseOrder>`,
			"neither alternative": `<purchaseOrder><items/></purchaseOrder>`,
		},
	},
	{
		name:   "address derivation and substitution",
		xsdSrc: schemas.AddressDerivationXSD,
		instances: map[string]string{
			"base address":                `<address><name>n</name><street>s</street><city>c</city></address>`,
			"xsi:type extension":          `<address xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="USAddress"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></address>`,
			"xsi:type unknown":            `<address xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="NoSuchType"><name>n</name></address>`,
			"xsi:type undeclared prefix":  `<address xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="po:USAddress"><name>n</name></address>`,
			"substitution group":          `<commentBlock><comment>a</comment><shipComment>b</shipComment><customerComment>c</customerComment></commentBlock>`,
			"abstract head used directly": `<noteBlock><note>x</note></noteBlock>`,
			"abstract head substituted":   `<noteBlock><shipNote>x</shipNote></noteBlock>`,
			"xsi:nil on non-nillable":     `<address xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:nil="true"/>`,
		},
	},
	{
		name:   "namespaced order",
		xsdSrc: schemas.NamespacedOrderXSD,
		instances: map[string]string{
			"valid qualified":      `<po:order xmlns:po="urn:example:po" priority="3"><po:id>7</po:id><po:note>hi</po:note></po:order>`,
			"default namespace":    `<order xmlns="urn:example:po"><id>7</id></order>`,
			"unqualified children": `<po:order xmlns:po="urn:example:po"><id>7</id></po:order>`,
			"wrong namespace":      `<order xmlns="urn:example:other"><id>7</id></order>`,
			"bad priority":         `<po:order xmlns:po="urn:example:po" priority="high"><po:id>7</po:id></po:order>`,
		},
	},
	{
		name:   "complex groups",
		xsdSrc: schemas.ComplexGroupsXSD,
		instances: map[string]string{
			"summary form":         `<report version="1"><title>t</title><summary>s</summary></report>`,
			"name form with pairs": `<report version="1"><title>t</title><first>f</first><last>l</last><key>k1</key><value>v1</value><key>k2</key><value>v2</value></report>`,
			"entries with ids":     `<report><title>t</title><summary>s</summary><entry id="a"><when>2001-01-01</when></entry><entry id="b"><when>2001-01-02</when></entry></report>`,
			"duplicate id":         `<report><title>t</title><summary>s</summary><entry id="a"><when>2001-01-01</when></entry><entry id="a"><when>2001-01-02</when></entry></report>`,
			// The journal test: entry's ID is tracked, then the content
			// model fails at <bogus/>; the DOM path never sees the ID.
			"id rollback on content failure": `<report><title>t</title><summary>s</summary><entry id="a"><when>2001-01-01</when></entry><bogus/><entry id="a"><when>2001-01-03</when></entry></report>`,
			"dangling key without value":     `<report><title>t</title><summary>s</summary><key>k</key></report>`,
			"text in element-only":           `<report><title>t</title>stray<summary>s</summary></report>`,
		},
	},
	{
		name:   "named group",
		xsdSrc: schemas.NamedGroupXSD,
		instances: map[string]string{
			"choice first":  `<purchaseOrder><singAddr>a</singAddr><items>i</items></purchaseOrder>`,
			"choice second": `<purchaseOrder><twoAddr>a</twoAddr><comment>c</comment><items>i</items></purchaseOrder>`,
			"both choices":  `<purchaseOrder><singAddr>a</singAddr><twoAddr>b</twoAddr><items>i</items></purchaseOrder>`,
			"missing items": `<purchaseOrder><singAddr>a</singAddr></purchaseOrder>`,
		},
	},
	{
		name:   "stream feature coverage",
		xsdSrc: streamFeaturesXSD,
		instances: map[string]string{
			"all features valid":                  `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><marker tag="m"/><para>mixed <em>text</em> here</para><opt xsi:nil="true"/><code>A1</code><node id="n1" ref="n2"/><node id="n2"/></doc>`,
			"empty content violated by element":   `<doc><marker><oops/></marker></doc>`,
			"empty content violated by text":      `<doc><marker>stray</marker></doc>`,
			"nilled with content":                 `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><opt xsi:nil="true">text</opt></doc>`,
			"nilled with comment":                 `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><opt xsi:nil="true"><!--c--></opt></doc>`,
			"xsi:nil false validates normally":    `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><opt xsi:nil="false"></opt></doc>`,
			"fixed value mismatch":                `<doc><code>B2</code></doc>`,
			"fixed value empty uses fixed":        `<doc><code/></doc>`,
			"dangling idref":                      `<doc><node id="n1" ref="ghost"/></doc>`,
			"mixed content accepts text":          `<doc><para>just text</para></doc>`,
			"mixed content rejects unknown child": `<doc><para>text <strong>x</strong></para></doc>`,
			"cdata in element-only":               `<doc><![CDATA[raw]]><marker/></doc>`,
			"nilled with valid attributes":        `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><e xsi:nil="true" id="5"/></doc>`,
			"nilled missing required attribute":   `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><e xsi:nil="true"/></doc>`,
			"nilled with bad attributes":          `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><e xsi:nil="true" id="abc" bogus="1"/></doc>`,
			"nilled simple with attribute":        `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><opt xsi:nil="true" a="1"/></doc>`,
			"nilled with fixed value":             `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><fx xsi:nil="true"/></doc>`,
		},
	},
	{
		name:   "malformed input",
		xsdSrc: schemas.PurchaseOrderXSD,
		instances: map[string]string{
			"mismatched tags":   `<purchaseOrder><shipTo></purchaseOrder>`,
			"truncated":         `<purchaseOrder><shipTo country="US"><name>n</nam`,
			"empty input":       ``,
			"garbage":           `not xml at all`,
			"undeclared prefix": `<purchaseOrder><po:items/></purchaseOrder>`,
			// Well-formedness error after a validity error: both paths
			// must report only the parse error.
			"late parse error after unknown root": `<nope><a></b></nope>`,
			"not even xml":                        `<purchaseOrder`,
		},
	},
	{
		name:   "wildcard envelope",
		xsdSrc: schemas.WildcardEnvelopeXSD,
		instances: map[string]string{
			"lax mix":               schemas.WildcardEnvelopeDoc,
			"known global invalid":  `<envelope><record><value>v</value><key>k</key></record></envelope>`,
			"foreign content only":  `<envelope xmlns:o="urn:other"><o:thing deep="1"><o:more/></o:thing></envelope>`,
			"bad declared attr":     `<envelope version="zero"><extra>x</extra></envelope>`,
			"wildcard attr":         `<envelope anything="goes"/>`,
			"global extra root":     `<extra>top level</extra>`,
			"global record invalid": `<record><key>k</key></record>`,
		},
	},
	{
		name:   "interpreter models",
		xsdSrc: interpXSD,
		instances: map[string]string{
			"valid": `<root rootId="r"><head>h</head>` +
				`<card id="c1"><a>1</a><b>b</b><c>c</c><tags><tag k="x" id="t1"/><tag k="y"/></tags></card>` +
				`<card><a>2</a><b>b</b><c>c</c><d>d</d><tags/></card>` +
				interpLog(3) + `<ref id="q" to="t1"/><ref to="c1"/></root>`,
			"members reordered, one bad": `<root><head>h</head><card><tags/><c>c</c><d>d</d><b>b</b><a>two</a></card></root>`,
			"missing member":             `<root><head>h</head><card><a>1</a><b>b</b><tags/></card></root>`,
			"duplicate member":           `<root><head>h</head><card><a>1</a><b>b</b><b>again</b><c>c</c><tags/></card></root>`,
			"bad member value":           `<root><head>h</head><card id="c"><a>one</a><b>b</b><c>c</c><tags><tag k="x" id="c"/></tags></card></root>`,
			"at the bound":               `<root><head>h</head>` + interpLog(5000) + `</root>`,
			"over the bound":             `<root><head>h</head>` + interpLog(5001) + `</root>`,
			"stray text":                 `<root><head>h</head><card>text<a>1</a><b>b</b><c>c</c><tags/></card></root>`,
			"duplicate key in nested scope": `<root><head>h</head>` +
				`<card><a>1</a><b>b</b><c>c</c><tags><tag k="x"/><tag k="x"/></tags></card></root>`,
			"ids collide across the edge": `<root rootId="in"><head>h</head>` +
				`<card id="in"><a>1</a><b>b</b><c>c</c><tags><tag k="x" id="out"/></tags></card>` +
				`<ref id="out"/><ref to="nowhere"/></root>`,
			"interp subtree under a failing parent": `<root rootId="r"><head>h</head>` +
				`<card id="r"><a>x</a><b>b</b><c>c</c><tags><tag k="x"/><tag k="x"/></tags></card>` +
				`<bogus/><ref id="r"/></root>`,
		},
	},
}

// assertSameResult fails the test unless the two results are identical in
// verdict, count, order, paths and messages.
func assertSameResult(t *testing.T, label string, domRes, streamRes *validator.Result) {
	t.Helper()
	if domRes.OK() != streamRes.OK() {
		t.Errorf("%s: verdict diverged: dom ok=%v stream ok=%v\n  dom: %v\n  stream: %v",
			label, domRes.OK(), streamRes.OK(), domRes.Violations, streamRes.Violations)
		return
	}
	if len(domRes.Violations) != len(streamRes.Violations) {
		t.Errorf("%s: violation count diverged: dom %d stream %d\n  dom: %v\n  stream: %v",
			label, len(domRes.Violations), len(streamRes.Violations), domRes.Violations, streamRes.Violations)
		return
	}
	for i := range domRes.Violations {
		if domRes.Violations[i] != streamRes.Violations[i] {
			t.Errorf("%s: violation %d diverged:\n  dom:    %v\n  stream: %v",
				label, i, domRes.Violations[i], streamRes.Violations[i])
		}
	}
}

// diffValidate runs one instance through both paths (and the streaming
// path a second time through a pathological one-byte reader) and asserts
// identical results.
func diffValidate(t *testing.T, schema *xsd.Schema, sv *validator.StreamValidator, label, src string) {
	t.Helper()
	_, domRes := validator.ValidateBytes(schema, []byte(src))
	streamRes := sv.ValidateBytes([]byte(src))
	assertSameResult(t, label, domRes, streamRes)
	readerRes := sv.ValidateReader(iotest.OneByteReader(strings.NewReader(src)))
	assertSameResult(t, label+" (one-byte reader)", domRes, readerRes)
}

// TestStreamMatchesDOM is the hand-curated differential corpus: every
// bundled schema plus a feature-coverage schema, valid and invalid
// instances, and malformed input. A 3,000-item order with a defect every
// 500th item follows, too large for the pinned corpus.
func TestStreamMatchesDOM(t *testing.T) {
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := xsd.ParseString(tc.xsdSrc, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			sv := validator.New(schema, nil).Stream()
			for label, src := range tc.instances {
				diffValidate(t, schema, sv, label, src)
			}
		})
	}
	t.Run("large order", func(t *testing.T) {
		schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
		if err != nil {
			t.Fatalf("schema: %v", err)
		}
		diffValidate(t, schema, validator.New(schema, nil).Stream(), "large order", syntheticOrder(3000, true))
	})
}

// TestOverTheBoundIndex: the 5,001st <e> under maxOccurs="5000" is
// rejected at its own index, 5000, by Log's automaton and in the
// validator's report.
func TestOverTheBoundIndex(t *testing.T) {
	schema, err := xsd.ParseString(interpXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	log := schema.Types[xsd.QName{Local: "Log"}].(*xsd.ComplexType)
	input := make([]contentmodel.Symbol, 5001)
	for i := range input {
		input[i] = contentmodel.Symbol{Local: "e"}
	}
	if _, merr := log.Matcher(schema).Match(input); merr == nil || merr.Index != 5000 {
		t.Fatalf("match error %v, want one at index 5000", merr)
	}
	res := validator.New(schema, nil).Stream().ValidateBytes([]byte(`<root><head>h</head>` + interpLog(5001) + `</root>`))
	if res.OK() || !strings.Contains(res.Violations[0].Msg, "at position 5000;") {
		t.Fatalf("violations %v, want the 5,001st e at position 5000", res.Violations)
	}
}

// FuzzStreamMatchesDOM mutates the differential corpus and demands
// identical violations — paths and messages — from the DOM and streaming
// walks under the instance's schema. The seed picks the schema (by index
// into diffCases) and the document. Both walks read element names through
// the schema's symbols and step by their IDs; a third leg, the streaming
// machine fed by a decoder without the name table, and a DOM parsed
// without it, resolve every name themselves and stay the oracle for the
// IDs.
func FuzzStreamMatchesDOM(f *testing.F) {
	type compiled struct {
		schema *xsd.Schema
		v      *validator.Validator
		sv     *validator.StreamValidator
	}
	var cases []compiled
	for i, tc := range diffCases {
		schema, err := xsd.ParseString(tc.xsdSrc, nil)
		if err != nil {
			f.Fatalf("%s: %v", tc.name, err)
		}
		v := validator.New(schema, nil)
		cases = append(cases, compiled{schema, v, v.Stream()})
		for _, src := range tc.instances {
			f.Add(uint8(i), []byte(src))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, src []byte) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		c := cases[int(which)%len(cases)]
		_, domRes := validator.ValidateBytes(c.schema, src)
		assertSameResult(t, "stream", domRes, c.sv.ValidateBytes(src))
		d := xmlparser.NewDecoder(src, nil)
		assertSameResult(t, "stream without names", domRes, c.sv.ValidateTokens(d))
		d.Release()
		if doc, err := dom.Parse(src); err == nil {
			assertSameResult(t, "dom without names", domRes, c.v.ValidateDocument(doc))
			doc.Release()
		}
	})
}

// TestNilledElementVerdicts pins the verdicts of the nil instances in the
// feature corpus (the differential alone would accept two walks that both
// skip a nilled element's attributes).
func TestNilledElementVerdicts(t *testing.T) {
	schema, err := xsd.ParseString(streamFeaturesXSD, nil)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	var instances map[string]string
	for _, tc := range diffCases {
		if tc.xsdSrc == streamFeaturesXSD {
			instances = tc.instances
		}
	}
	sv := validator.New(schema, nil).Stream()
	for label, want := range map[string][]validator.Violation{
		"nilled with valid attributes":      nil,
		"nilled missing required attribute": {{Path: "/doc/e", Msg: `required attribute "id" is missing`}},
		"nilled with bad attributes": {
			{Path: "/doc/e", Msg: `attribute "id": int: bad digit 'a' in decimal "abc"`},
			{Path: "/doc/e", Msg: `attribute "bogus" is not declared for this element`},
		},
		"nilled simple with attribute": {{Path: "/doc/opt", Msg: `attribute "a" is not allowed on a simple-type element`}},
		"nilled with fixed value":      {{Path: "/doc/fx", Msg: "xsi:nil on an element with a fixed value"}},
	} {
		src, ok := instances[label]
		if !ok {
			t.Fatalf("no feature-corpus instance %q", label)
		}
		_, domRes := validator.ValidateBytes(schema, []byte(src))
		assertSameResult(t, label, &validator.Result{Violations: want}, domRes)
		assertSameResult(t, label+" (stream)", &validator.Result{Violations: want}, sv.ValidateBytes([]byte(src)))
	}
}

// TestStreamMatchesDOMOnMutationCorpus replays E1's generator-produced
// mutants (one seeded defect per validity rule) through both paths.
func TestStreamMatchesDOMOnMutationCorpus(t *testing.T) {
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	sv := validator.New(schema, nil).Stream()
	for _, m := range poMutations {
		diffValidate(t, schema, sv, m.name, m.xmlOutput)
	}
}

// mutateDoc parses src fresh, applies op to the element at index idx
// (document order), and returns the serialized mutant. ok=false when the
// op does not apply to that element.
func mutateDoc(t *testing.T, src string, idx int, op string) (string, bool) {
	t.Helper()
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var els []*dom.Element
	var walk func(n dom.Node)
	walk = func(n dom.Node) {
		if e, ok := n.(*dom.Element); ok {
			els = append(els, e)
		}
		for _, c := range n.ChildNodes() {
			walk(c)
		}
	}
	walk(doc.DocumentElement())
	if idx >= len(els) {
		return "", false
	}
	el := els[idx]
	isRoot := el == doc.DocumentElement()
	switch op {
	case "remove":
		if isRoot {
			return "", false
		}
		if _, err := el.ParentNode().RemoveChild(el); err != nil {
			t.Fatalf("remove: %v", err)
		}
	case "duplicate":
		if isRoot {
			return "", false
		}
		clone := el.CloneNode(true)
		if _, err := el.ParentNode().InsertBefore(clone, el); err != nil {
			t.Fatalf("duplicate: %v", err)
		}
	case "rename":
		renamed := doc.CreateElementNS(el.NamespaceURI(), el.TagName()+"x")
		for _, a := range el.Attributes() {
			renamed.SetAttributeNS(a.Name().Space, a.NodeName(), a.Value())
		}
		for len(el.ChildNodes()) > 0 {
			if _, err := renamed.AppendChild(el.ChildNodes()[0]); err != nil {
				t.Fatalf("rename move: %v", err)
			}
		}
		if _, err := el.ParentNode().ReplaceChild(renamed, el); err != nil {
			t.Fatalf("rename: %v", err)
		}
	case "bogus-attr":
		el.SetAttribute("bogusAttr", "1")
	case "inject-text":
		if _, err := el.AppendChild(doc.CreateTextNode("stray!")); err != nil {
			t.Fatalf("inject: %v", err)
		}
	default:
		t.Fatalf("unknown op %q", op)
	}
	return dom.ToString(doc), true
}

// TestStreamMatchesDOMOnGeneratedMutants applies five systematic mutation
// operators to every element of the paper's Fig. 1 instance and checks
// both validators agree on each mutant (~100 instances).
func TestStreamMatchesDOMOnGeneratedMutants(t *testing.T) {
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	sv := validator.New(schema, nil).Stream()
	ops := []string{"remove", "duplicate", "rename", "bogus-attr", "inject-text"}
	mutants := 0
	for _, op := range ops {
		for idx := 0; ; idx++ {
			src, ok := mutateDoc(t, schemas.PurchaseOrderDoc, idx, op)
			if !ok {
				if idx == 0 {
					continue
				}
				break
			}
			mutants++
			diffValidate(t, schema, sv, fmt.Sprintf("%s[%d]", op, idx), src)
		}
	}
	if mutants < 50 {
		t.Errorf("mutation engine produced only %d mutants; expected a broad corpus", mutants)
	}
}
