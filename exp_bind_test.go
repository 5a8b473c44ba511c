package repro

// E12 correctness harness: the two decode paths (DOM and streaming) must
// agree byte-for-byte on the verdict, the canonical JSON and the
// marshaled XML, and decode∘marshal must be the identity modulo
// canonicalization, on every bundled schema plus wildcard coverage.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/bind"
	"repro/internal/schemas"
	"repro/internal/wml"
	"repro/internal/xsd"
)

// bindAnyXSD exercises the wildcard binding paths: xs:any children that
// resolve to a global declaration, raw subtrees with no declaration, and
// attribute wildcards.
const bindAnyXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="envelope">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="head" type="xsd:string"/>
        <xsd:any minOccurs="0" maxOccurs="unbounded" processContents="lax"/>
      </xsd:sequence>
      <xsd:anyAttribute processContents="lax"/>
    </xsd:complexType>
  </xsd:element>
  <xsd:element name="extra" type="xsd:string"/>
</xsd:schema>
`

// bindKeyAllXSD sends an element with an xs:key, a subtree the validation
// machine needs as a node, through the decoders, beside a 7-member xs:all,
// which the automaton's member bitset steps child by child.
const bindKeyAllXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="inventory">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="catalog">
          <xsd:complexType>
            <xsd:sequence>
              <xsd:element name="part" maxOccurs="unbounded">
                <xsd:complexType>
                  <xsd:simpleContent>
                    <xsd:extension base="xsd:string">
                      <xsd:attribute name="sku" type="xsd:string" use="required"/>
                      <xsd:attribute name="qty" type="xsd:int" default="1"/>
                    </xsd:extension>
                  </xsd:simpleContent>
                </xsd:complexType>
              </xsd:element>
            </xsd:sequence>
          </xsd:complexType>
          <xsd:key name="partKey">
            <xsd:selector xpath="part"/>
            <xsd:field xpath="@sku"/>
          </xsd:key>
        </xsd:element>
        <xsd:element name="spec" minOccurs="0">
          <xsd:complexType>
            <xsd:all>
              <xsd:element name="a" type="xsd:string"/>
              <xsd:element name="b" type="xsd:int"/>
              <xsd:element name="c" type="xsd:string"/>
              <xsd:element name="d" type="xsd:boolean"/>
              <xsd:element name="e" type="xsd:string"/>
              <xsd:element name="f" type="xsd:date"/>
              <xsd:element name="g" type="xsd:decimal" minOccurs="0"/>
            </xsd:all>
          </xsd:complexType>
        </xsd:element>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
`

// bindCases extends the validation differential corpus (diffCases) with
// schemas whose decode shapes matter specifically for binding.
var bindCases = []diffCase{
	{
		name:   "wml",
		xsdSrc: wml.Schema,
		instances: map[string]string{
			"mixed inline markup":       `<wml><card id="c1" title="T"><p align="left">Hello <b>bold</b> and <a href="http://example.org/" title="t">link</a> tail</p></card></wml>`,
			"select with options":       `<wml><card><p><select name="s" multiple="true"><option value="v1">One</option><option>Two</option></select></p></card></wml>`,
			"line break and empty card": `<wml><card><p>one<br/>two</p></card><card/></wml>`,
			"bad alignment":             `<wml><card><p align="diagonal">x</p></card></wml>`,
			"unknown inline element":    `<wml><card><p>text <strong>x</strong></p></card></wml>`,
		},
	},
	{
		name:   "wildcards",
		xsdSrc: bindAnyXSD,
		instances: map[string]string{
			"declared global via any": `<envelope><head>h</head><extra>e</extra></envelope>`,
			"raw undeclared subtree":  `<envelope><head>h</head><foo xmlns="urn:mystery" a="b">text<inner/><!--c--></foo></envelope>`,
			"wildcard attribute":      `<envelope loose="yes"><head>h</head></envelope>`,
			"mixed raw and declared":  `<envelope><head>h</head><extra>one</extra><bar/><extra>two</extra></envelope>`,
		},
	},
	{
		// The xs:all instances keep declaration order: the JSON projection
		// does not record all-group order, so the round trip would reorder.
		name:   "key and all",
		xsdSrc: bindKeyAllXSD,
		instances: map[string]string{
			"key and all valid":  `<inventory><catalog><part sku="p1">bolt</part><part sku="p2" qty="4">nut</part></catalog><spec><a>x</a><b>2</b><c>y</c><d>true</d><e>z</e><f>2001-01-01</f><g>1.50</g></spec></inventory>`,
			"key only":           `<inventory><catalog><part sku="p1">bolt</part></catalog></inventory>`,
			"duplicate key":      `<inventory><catalog><part sku="p1">bolt</part><part sku="p1">nut</part></catalog></inventory>`,
			"all member missing": `<inventory><catalog><part sku="p1">bolt</part></catalog><spec><a>x</a><b>2</b><c>y</c><d>true</d><e>z</e></spec></inventory>`,
			"all member invalid": `<inventory><catalog><part sku="p1">bolt</part></catalog><spec><a>x</a><b>two</b><c>y</c><d>true</d><e>z</e><f>2001-01-01</f></spec></inventory>`,
		},
	},
}

// decodeBoth runs one instance through both decode paths (the streaming
// path twice, once through a one-byte reader) and asserts identical
// verdicts and identical values.
func decodeBoth(t *testing.T, b *bind.Binder, label, src string) (*bind.Value, bool) {
	t.Helper()
	domVal, domRes := b.DecodeBytes([]byte(src))
	streamVal, streamRes, err := b.DecodeStreamBytes([]byte(src))
	if err != nil {
		t.Errorf("%s: stream decode error: %v", label, err)
		return nil, false
	}
	assertSameResult(t, label, domRes, streamRes)
	if (domVal == nil) != (streamVal == nil) {
		t.Errorf("%s: value presence diverged: dom=%v stream=%v", label, domVal != nil, streamVal != nil)
		return nil, false
	}
	if domVal == nil {
		if domRes.OK() {
			t.Errorf("%s: no value from a valid document", label)
		}
		return nil, false
	}
	domJSON, streamJSON := b.JSON(domVal), b.JSON(streamVal)
	if !bytes.Equal(domJSON, streamJSON) {
		t.Errorf("%s: JSON diverged:\n  dom:    %s\n  stream: %s", label, domJSON, streamJSON)
		return nil, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	readerVal, readerRes, err := b.DecodeReader(ctx, iotest.OneByteReader(strings.NewReader(src)))
	if err != nil || !readerRes.OK() || !bytes.Equal(b.JSON(readerVal), domJSON) {
		t.Errorf("%s: one-byte reader decode diverged (err=%v)", label, err)
	}
	return domVal, true
}

// assertRoundTrip checks decode∘marshal = id (via the canonical JSON) and
// that FromJSON inverts the JSON projection.
func assertRoundTrip(t *testing.T, b *bind.Binder, label string, v *bind.Value) {
	t.Helper()
	out, err := b.Marshal(v)
	if err != nil {
		t.Errorf("%s: marshal: %v", label, err)
		return
	}
	v2, res := b.DecodeBytes(out)
	if v2 == nil {
		t.Errorf("%s: marshaled document failed to decode: %v\n  xml: %s", label, res.Violations, out)
		return
	}
	j1, j2 := b.JSON(v), b.JSON(v2)
	if !bytes.Equal(j1, j2) {
		t.Errorf("%s: round trip changed the value:\n  before: %s\n  after:  %s\n  xml: %s", label, j1, j2, out)
		return
	}
	v3, err := b.FromJSON(j1)
	if err != nil {
		t.Errorf("%s: FromJSON: %v\n  json: %s", label, err, j1)
		return
	}
	out3, err := b.Marshal(v3)
	if err != nil {
		t.Errorf("%s: marshal after FromJSON: %v\n  json: %s", label, err, j1)
		return
	}
	if !bytes.Equal(out, out3) {
		t.Errorf("%s: JSON round trip changed the document:\n  direct:    %s\n  via JSON:  %s", label, out, out3)
	}
}

// TestBindStreamMatchesDOM is the binding differential: every schema and
// instance from the validation differential corpus, plus WML and wildcard
// coverage, through both decode paths and the round-trip property.
func TestBindStreamMatchesDOM(t *testing.T) {
	cases := append(append([]diffCase{}, diffCases...), bindCases...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := xsd.ParseString(tc.xsdSrc, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			b := bind.New(schema, nil)
			for label, src := range tc.instances {
				if v, ok := decodeBoth(t, b, label, src); ok {
					assertRoundTrip(t, b, label, v)
				}
			}
		})
	}
}

// TestDecodeCanonicalJSON pins the canonical JSON of a few decoded
// documents, so the decoder's output has a reference that does not depend
// on the two walks agreeing with each other.
func TestDecodeCanonicalJSON(t *testing.T) {
	for _, tc := range []struct {
		name, xsdSrc, src, want string
	}{
		{"purchase order", schemas.PurchaseOrderXSD, schemas.PurchaseOrderDoc,
			`{"$element":"purchaseOrder","@orderDate":"1999-10-20","shipTo":{"@country":"US","name":"Alice Smith","street":"123 Maple Street","city":"Mill Valley","state":"CA","zip":90952},"billTo":{"@country":"US","name":"Robert Smith","street":"8 Oak Avenue","city":"Old Town","state":"PA","zip":95819},"comment":"Hurry, my lawn is going wild","items":{"item":[{"@partNum":"872-AA","productName":"Lawnmower","quantity":1,"USPrice":148.95,"comment":"Confirm this is electric"},{"@partNum":"926-AA","productName":"Baby Monitor","quantity":1,"USPrice":39.98,"shipDate":"1999-05-21"}]}}`},
		{"wml mixed content", wml.Schema,
			`<wml><card id="c1" title="T"><p align="left">Hello <b>bold</b> and <a href="http://example.org/" title="t">link</a> tail</p></card></wml>`,
			`{"$element":"wml","card":[{"@id":"c1","@title":"T","p":[{"@align":"left","$mixed":["Hello ",{"$element":"b","$value":"bold"}," and ",{"$element":"a","@href":"http://example.org/","@title":"t","$value":"link"}," tail"]}]}]}`},
		{"raw wildcard", bindAnyXSD,
			`<envelope><head>h</head><foo xmlns="urn:mystery" a="b">text<inner/><!--c--></foo></envelope>`,
			`{"$element":"envelope","head":"h","$any":[{"$raw":"\u003cfoo xmlns=\"urn:mystery\" a=\"b\"\u003etext\u003cinner/\u003e\u003c!--c--\u003e\u003c/foo\u003e"}]}`},
		{"xsi:type", schemas.AddressDerivationXSD,
			`<address xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="USAddress"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></address>`,
			`{"$element":"address","$type":"USAddress","name":"n","street":"s","city":"c","state":"st","zip":"1"}`},
		{"nilled", streamFeaturesXSD,
			`<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><opt xsi:nil="true"/><e xsi:nil="true" id="5"/></doc>`,
			`{"$element":"doc","opt":null,"e":{"@id":5,"$nil":true}}`},
		{"key and all", bindKeyAllXSD,
			`<inventory><catalog><part sku="p1">bolt</part><part sku="p2" qty="4">nut</part></catalog><spec><a>x</a><b>2</b><c>y</c><d>true</d><e>z</e><f>2001-01-01</f><g>1.50</g></spec></inventory>`,
			`{"$element":"inventory","catalog":{"part":[{"@sku":"p1","@qty":1,"$value":"bolt"},{"@sku":"p2","@qty":4,"$value":"nut"}]},"spec":{"a":"x","b":2,"c":"y","d":true,"e":"z","f":"2001-01-01","g":1.5}}`},
	} {
		schema, err := xsd.ParseString(tc.xsdSrc, nil)
		if err != nil {
			t.Fatalf("%s: schema: %v", tc.name, err)
		}
		b := bind.New(schema, nil)
		domVal, res := b.DecodeBytes([]byte(tc.src))
		if domVal == nil {
			t.Errorf("%s: DOM decode failed: %v", tc.name, res.Violations)
			continue
		}
		streamVal, res, err := b.DecodeStreamBytes([]byte(tc.src))
		if streamVal == nil {
			t.Errorf("%s: stream decode failed: %v %v", tc.name, err, res.Violations)
			continue
		}
		for walk, v := range map[string]*bind.Value{"dom": domVal, "stream": streamVal} {
			if got := string(b.JSON(v)); got != tc.want {
				t.Errorf("%s (%s walk):\n  got  %s\n  want %s", tc.name, walk, got, tc.want)
			}
		}
	}
}

// TestBindMutationCorpus replays E1's generated mutants through both
// decode paths: every mutant must produce the same verdict and, when
// valid, the same value.
func TestBindMutationCorpus(t *testing.T) {
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	b := bind.New(schema, nil)
	for _, m := range poMutations {
		if v, ok := decodeBoth(t, b, m.name, m.xmlOutput); ok {
			assertRoundTrip(t, b, m.name, v)
		}
	}
}

// FuzzBindRoundTrip feeds arbitrary documents to both decode paths: the
// paths must agree on verdict and value, and any accepted document must
// survive decode → marshal → decode unchanged.
func FuzzBindRoundTrip(f *testing.F) {
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		f.Fatalf("schema: %v", err)
	}
	b := bind.New(schema, nil)
	f.Add(schemas.PurchaseOrderDoc)
	for _, tc := range diffCases {
		if tc.xsdSrc != schemas.PurchaseOrderXSD {
			continue
		}
		for _, src := range tc.instances {
			f.Add(src)
		}
	}
	for _, m := range poMutations {
		f.Add(m.xmlOutput)
	}
	f.Fuzz(func(t *testing.T, src string) {
		domVal, domRes := b.DecodeBytes([]byte(src))
		streamVal, streamRes, err := b.DecodeStreamBytes([]byte(src))
		if err != nil {
			t.Fatalf("stream decode error: %v", err)
		}
		if domRes.OK() != streamRes.OK() {
			t.Fatalf("verdict diverged: dom=%v stream=%v", domRes.Violations, streamRes.Violations)
		}
		if (domVal == nil) != (streamVal == nil) {
			t.Fatalf("value presence diverged")
		}
		if domVal == nil {
			return
		}
		j1, j2 := b.JSON(domVal), b.JSON(streamVal)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("JSON diverged:\n  dom:    %s\n  stream: %s", j1, j2)
		}
		out, err := b.Marshal(domVal)
		if err != nil {
			t.Fatalf("marshal rejected a decoded value: %v\n  json: %s", err, j1)
		}
		v2, res := b.DecodeBytes(out)
		if v2 == nil {
			t.Fatalf("marshaled document invalid: %v\n  xml: %s", res.Violations, out)
		}
		if !bytes.Equal(j1, b.JSON(v2)) {
			t.Fatalf("round trip changed the value:\n  before: %s\n  after:  %s", j1, b.JSON(v2))
		}
	})
}
