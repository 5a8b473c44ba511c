package repro

// E12 encode differential: Binder.Marshal validates the value tree as it
// writes it, with no parse of its own output. The reference is the round
// trip it replaced — serialize, parse the bytes, validate the DOM — kept
// here in test code only. Every value must marshal to the same bytes or
// fail with the same error string on both.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/wml"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// marshalXSD adds what the bundled schemas lack for marshalling: a target
// namespace with prefixed xsi:type values, an abstract type, a fixed
// attribute and element, and a nillable element.
const marshalXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns:m="urn:m"
    targetNamespace="urn:m" elementFormDefault="qualified">
  <xsd:complexType name="Shape" abstract="true">
    <xsd:sequence><xsd:element name="label" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
  <xsd:complexType name="Circle">
    <xsd:complexContent>
      <xsd:extension base="m:Shape">
        <xsd:sequence><xsd:element name="r" type="xsd:decimal"/></xsd:sequence>
        <xsd:attribute name="unit" type="xsd:string" fixed="cm"/>
      </xsd:extension>
    </xsd:complexContent>
  </xsd:complexType>
  <xsd:element name="drawing">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="shape" type="m:Shape" maxOccurs="unbounded"/>
        <xsd:element name="note" type="xsd:string" nillable="true" minOccurs="0"/>
        <xsd:element name="code" type="xsd:string" fixed="A1" minOccurs="0"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
`

const marshalDoc = `<m:drawing xmlns:m="urn:m" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">` +
	`<m:shape xsi:type="m:Circle" unit="cm"><m:label>a &lt; b</m:label><m:r>1.50</m:r></m:shape>` +
	`<m:note xsi:nil="true"/><m:code>A1</m:code></m:drawing>`

// refMarshal is the marshal round trip Binder.Marshal replaced.
func refMarshal(b *bind.Binder, v *bind.Value) ([]byte, error) {
	out := bind.Serialize(v)
	doc, err := dom.Parse(out)
	if err != nil {
		return nil, fmt.Errorf("bind: marshaled document does not parse: %w", err)
	}
	if res := b.Validator().ValidateDocument(doc); !res.OK() {
		viol := res.Violations[0]
		return nil, fmt.Errorf("bind: marshaled document is schema-invalid at %s: %s", viol.Path, viol.Msg)
	}
	return out, nil
}

// assertMarshalMatches requires Marshal and the round trip to agree on v,
// and returns Marshal's error.
func assertMarshalMatches(t *testing.T, b *bind.Binder, label string, v *bind.Value) error {
	t.Helper()
	out, err := b.Marshal(v)
	refOut, refErr := refMarshal(b, v)
	switch {
	case (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error():
		t.Errorf("%s: marshal error diverged:\n  marshal:    %v\n  round trip: %v\n  xml: %s", label, err, refErr, bind.Serialize(v))
	case !bytes.Equal(out, refOut):
		t.Errorf("%s: marshal output diverged:\n  marshal:    %s\n  round trip: %s", label, out, refOut)
	}
	return err
}

// looseValue builds a Value from a parsed element without the schema, so
// invalid documents become values too: element children make a struct,
// text beside them mixed segments, text alone a string, nothing an empty
// element; xsi:type becomes TypeName and xsi:nil="true" a nil value.
func looseValue(el *dom.Element) *bind.Value {
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}}
	nilled := false
	for _, a := range el.Attributes() {
		n := a.Name()
		switch {
		case n.Space == xmlparser.XMLNSNamespace:
		case n.Space == xsd.XSINamespace && n.Local == "type":
			prefix, local, ok := strings.Cut(a.Value(), ":")
			if !ok {
				prefix, local = "", prefix
			}
			v.TypeName = xsd.QName{Space: lookupPrefix(el, prefix), Local: local}
		case n.Space == xsd.XSINamespace && n.Local == "nil":
			nilled = a.Value() == "true"
		default:
			v.Attrs = append(v.Attrs, bind.Attr{Name: xsd.QName{Space: n.Space, Local: n.Local},
				Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
		}
	}
	var text strings.Builder
	hasElem, hasText := false, false
	for _, c := range el.ChildNodes() {
		switch c := c.(type) {
		case *dom.Element:
			hasElem = true
			child := looseValue(c)
			v.Children = append(v.Children, child)
			v.Segments = append(v.Segments, bind.Segment{Child: child})
		case *dom.Text:
			hasText = true
			text.WriteString(c.Data)
			v.Segments = appendLooseText(v.Segments, c.Data)
		case *dom.CDATASection:
			hasText = true
			text.WriteString(c.Data)
			v.Segments = appendLooseText(v.Segments, c.Data)
		}
	}
	switch {
	case nilled:
		v.Kind, v.Children, v.Segments = bind.KindNil, nil, nil
	case hasElem && hasText:
		v.Kind, v.Children = bind.KindMixed, nil
	case hasElem:
		v.Kind, v.Segments = bind.KindStruct, nil
	case hasText:
		v.Kind, v.Segments = bind.KindSimple, nil
		v.Simple = xsdtypes.Value{Kind: xsdtypes.VString, Str: text.String()}
	default:
		v.Kind, v.Segments = bind.KindEmpty, nil
	}
	return v
}

// appendLooseText adds character data to a segment list: adjacent text
// runs coalesce and empty ones are dropped.
func appendLooseText(segs []bind.Segment, data string) []bind.Segment {
	if data == "" {
		return segs
	}
	if n := len(segs); n > 0 && segs[n-1].Child == nil {
		segs[n-1].Text += data
		return segs
	}
	return append(segs, bind.Segment{Text: data})
}

// lookupPrefix resolves a prefix against the element's in-scope
// declarations.
func lookupPrefix(el *dom.Element, prefix string) string {
	for n := dom.Node(el); n != nil; n = n.ParentNode() {
		e, ok := n.(*dom.Element)
		if !ok {
			break
		}
		for _, a := range e.Attributes() {
			if an := a.Name(); an.Space == xmlparser.XMLNSNamespace &&
				(an.Prefix == "xmlns" && an.Local == prefix || prefix == "" && an.Prefix == "" && an.Local == "xmlns") {
				return a.Value()
			}
		}
	}
	return ""
}

// marshalTarget is one schema the differential marshals against.
type marshalTarget struct {
	name  string
	b     *bind.Binder
	valid string // a valid instance, decoded for value-level mutations
}

func marshalTargets(tb testing.TB) []marshalTarget {
	tb.Helper()
	var out []marshalTarget
	for _, tc := range []struct{ name, xsdSrc, valid string }{
		{"po", schemas.PurchaseOrderXSD, schemas.PurchaseOrderDoc},
		{"drawing", marshalXSD, marshalDoc},
		{"wildcards", schemas.WildcardEnvelopeXSD, schemas.WildcardEnvelopeDoc},
		{"wml", wml.Schema, `<wml><card id="c1"><p align="left">Hello <b>bold</b> tail</p></card></wml>`},
		{"derivation", schemas.AddressDerivationXSD, `<noteBlock><shipNote>n</shipNote></noteBlock>`},
	} {
		schema, err := xsd.ParseString(tc.xsdSrc, nil)
		if err != nil {
			tb.Fatalf("%s: %v", tc.name, err)
		}
		out = append(out, marshalTarget{tc.name, bind.New(schema, nil), tc.valid})
	}
	return out
}

// decodeValid decodes a target's valid instance; each call returns a
// fresh tree that a test may mutate.
func decodeValid(t *testing.T, tgt marshalTarget) *bind.Value {
	t.Helper()
	v, res := tgt.b.DecodeBytes([]byte(tgt.valid))
	if v == nil {
		t.Fatalf("%s: %v", tgt.name, res.Violations)
	}
	return v
}

// child returns the first child of v named local.
func child(v *bind.Value, local string) *bind.Value {
	for _, c := range v.Children {
		if c.Name.Local == local {
			return c
		}
	}
	panic("no child " + local)
}

func str(s string) xsdtypes.Value { return xsdtypes.Value{Kind: xsdtypes.VString, Str: s} }

// TestMarshalMatchesRoundTrip runs the differential over E1's mutation
// corpus, value-level mutations of valid trees (each must fail), and raw
// fragments and text a parser rejects; it also pins the bytes of two
// valid trees.
func TestMarshalMatchesRoundTrip(t *testing.T) {
	targets := marshalTargets(t)
	po, drawing, wild, wmlT, deriv := targets[0], targets[1], targets[2], targets[3], targets[4]

	for _, m := range poMutations {
		doc, err := dom.Parse([]byte(m.xmlOutput))
		if err != nil {
			t.Fatal(err)
		}
		if assertMarshalMatches(t, po.b, "E1 "+m.name, looseValue(doc.DocumentElement())) == nil {
			t.Errorf("E1 %s: marshalled a schema-invalid tree", m.name)
		}
	}

	mutations := []struct {
		name   string
		tgt    marshalTarget
		mutate func(v *bind.Value)
	}{
		{"bad scalar", po, func(v *bind.Value) {
			child(child(child(v, "items"), "item"), "quantity").Simple = str("lots")
		}},
		{"facet violation", po, func(v *bind.Value) {
			child(child(child(v, "items"), "item"), "quantity").Simple = str("250")
		}},
		{"missing child", po, func(v *bind.Value) {
			ship := child(v, "shipTo")
			ship.Children = ship.Children[1:]
		}},
		{"extra child", po, func(v *bind.Value) {
			ship := child(v, "shipTo")
			ship.Children = append(ship.Children, ship.Children[0])
		}},
		{"misordered children", po, func(v *bind.Value) {
			c := child(v, "shipTo").Children
			c[0], c[1] = c[1], c[0]
		}},
		{"missing required attribute", po, func(v *bind.Value) {
			child(child(v, "items"), "item").Attrs = nil
		}},
		{"undeclared attribute", po, func(v *bind.Value) {
			ship := child(v, "shipTo")
			ship.Attrs = append(ship.Attrs, bind.Attr{Name: xsd.QName{Local: "planet"}, Value: str("mars")})
		}},
		{"wrong fixed attribute", drawing, func(v *bind.Value) {
			child(v, "shape").Attrs[0].Value = str("mm")
		}},
		{"wrong fixed element", drawing, func(v *bind.Value) {
			child(v, "code").Simple = str("B2")
		}},
		{"unknown xsi:type", drawing, func(v *bind.Value) {
			child(v, "shape").TypeName = xsd.QName{Space: "urn:m", Local: "Square"}
		}},
		{"abstract xsi:type", drawing, func(v *bind.Value) {
			child(v, "shape").TypeName = xsd.QName{Space: "urn:m", Local: "Shape"}
		}},
		{"abstract declared type", drawing, func(v *bind.Value) {
			child(v, "shape").TypeName = xsd.QName{}
		}},
		{"nil on non-nillable", drawing, func(v *bind.Value) {
			child(v, "shape").Kind = bind.KindNil
		}},
		{"text in element-only content", po, func(v *bind.Value) {
			ship := child(v, "shipTo")
			ship.Kind = bind.KindMixed
			for _, c := range ship.Children {
				ship.Segments = append(ship.Segments, bind.Segment{Child: c}, bind.Segment{Text: "x & y"})
			}
		}},
		{"unknown mixed child", wmlT, func(v *bind.Value) {
			p := child(child(v, "card"), "p")
			p.Segments = append(p.Segments, bind.Segment{Child: &bind.Value{Name: xsd.QName{Local: "strong"}, Kind: bind.KindEmpty}})
		}},
		{"abstract substitution head", deriv, func(v *bind.Value) {
			v.Children[0].Name.Local = "note"
		}},
	}
	for _, m := range mutations {
		v := decodeValid(t, m.tgt)
		if assertMarshalMatches(t, m.tgt.b, m.name, v) != nil {
			t.Fatalf("%s: the unmutated tree does not marshal", m.name)
		}
		m.mutate(v)
		if assertMarshalMatches(t, m.tgt.b, m.name, v) == nil {
			t.Errorf("%s: marshalled a schema-invalid tree", m.name)
		}
	}

	// Valid mixed content whose text needs escaping.
	v := decodeValid(t, wmlT)
	p := child(child(v, "card"), "p")
	p.Segments = append([]bind.Segment{{Text: "a < b & c > d\r\n"}}, p.Segments...)
	if err := assertMarshalMatches(t, wmlT.b, "escaped mixed text", v); err != nil {
		t.Errorf("escaped mixed text: %v", err)
	}

	// Pieces only their bytes decide: the marshal walk hands over to a
	// parser of its output from the first of them on. want is a part of
	// the error both sides must report ("" for none).
	addRaw := func(frag string) func(v *bind.Value) *bind.Value {
		return func(v *bind.Value) *bind.Value {
			v.Children = append(v.Children, &bind.Value{Kind: bind.KindRaw, Wild: true, Raw: frag})
			return v
		}
	}
	for _, c := range []struct {
		name, want string
		tgt        marshalTarget
		edit       func(v *bind.Value) *bind.Value
	}{
		{"raw, undeclared prefix", `undeclared namespace prefix "o"`, wild, addRaw(`<o:thing deep="1"><o:more/></o:thing>`)},
		{"raw, unclosed", "does not match start tag <p>", wild, addRaw(`<o xmlns="urn:o"><p>`)},
		{"raw, extra end tag", "does not parse", wild, addRaw(`<o/></envelope>`)},
		{"raw, leading text", `character data "text"`, wild, addRaw(` text <o/>`)},
		{"raw, declared prefix", "", wild, addRaw(`<o:thing xmlns:o="urn:other" deep="1"/>`)},
		{"raw, root", `"0"`, wild, func(*bind.Value) *bind.Value {
			return &bind.Value{Kind: bind.KindRaw, Raw: `<envelope version="0"/>`}
		}},
		// Element-only content reports the text with a snippet that takes in
		// the fragment's leading text.
		{"raw after text", `character data "x y"`, po, func(v *bind.Value) *bind.Value {
			ship := child(v, "shipTo")
			ship.Kind = bind.KindMixed
			ship.Segments = []bind.Segment{{Text: "x"}, {Child: &bind.Value{Kind: bind.KindRaw, Raw: " y<o/>"}}}
			return v
		}},
		{"illegal character", "illegal character U+0007", po, func(v *bind.Value) *bind.Value {
			child(v, "comment").Simple = str("bell\x07")
			return v
		}},
		{"illegal character in an attribute", "illegal character U+0001 in attribute value", po, func(v *bind.Value) *bind.Value {
			child(v, "shipTo").Attrs[0].Value = str("U\x01S")
			return v
		}},
		{"invalid UTF-8", "", po, func(v *bind.Value) *bind.Value {
			child(v, "comment").Simple = str("\xffok")
			return v
		}},
		{"attribute not a name", "does not parse", po, func(v *bind.Value) *bind.Value {
			child(v, "shipTo").Attrs[0].Name.Local = "1st"
			return v
		}},
		{"duplicate attribute", "duplicate attribute", po, func(v *bind.Value) *bind.Value {
			v.Attrs = append(v.Attrs, v.Attrs[0])
			return v
		}},
		// Written as xmlns="abc", a default namespace declaration.
		{"xmlns attribute", "no global declaration for root element {abc}envelope", wild, func(v *bind.Value) *bind.Value {
			v.Attrs[1].Name.Local = "xmlns"
			return v
		}},
		{"XML namespace element", "cannot be bound", po, func(v *bind.Value) *bind.Value {
			v.Name.Space = xmlparser.XMLNamespace
			return v
		}},
	} {
		err := assertMarshalMatches(t, c.tgt.b, c.name, c.edit(decodeValid(t, c.tgt)))
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	// A raw fragment whose prefix is declared only on the document it was
	// decoded from: the error carries the position in the output.
	_, err := wild.b.Marshal(addRaw(`<o:thing deep="1"><o:more/></o:thing>`)(decodeValid(t, wild)))
	if want := `bind: marshaled document does not parse: xml: undeclared namespace prefix "o" on element <o:thing> at 1:`; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("raw fragment with an undeclared prefix: %v", err)
	}

	for _, g := range []struct {
		tgt  marshalTarget
		want string
	}{
		{drawing, `<ns1:drawing xmlns:ns1="urn:m" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">` +
			`<ns1:shape xsi:type="ns1:Circle" unit="cm"><ns1:label>a &lt; b</ns1:label><ns1:r>1.5</ns1:r></ns1:shape>` +
			`<ns1:note xsi:nil="true"/><ns1:code>A1</ns1:code></ns1:drawing>`},
		{wild, `<envelope version="2" x-trace="abc"><extra>first note</extra><record><key>color</key><value>green</value></record>` +
			`<unknown attr="kept"><nested/>text</unknown></envelope>`},
	} {
		if out, err := g.tgt.b.Marshal(decodeValid(t, g.tgt)); err != nil || string(out) != g.want {
			t.Errorf("%s: marshalled\n  %s (%v)\nwant\n  %s", g.tgt.name, out, err, g.want)
		}
	}
}

// FuzzMarshalMatchesRoundTrip drives the differential with fuzzed trees:
// a well-formed document becomes a value without the schema (looseValue),
// then one edit picked by at puts fuzzed text where the walk must decide
// what a parser would read: simple content, an attribute value, an
// element name, a raw fragment, a mixed text segment or an xsi:type name.
func FuzzMarshalMatchesRoundTrip(f *testing.F) {
	targets := marshalTargets(f)
	for i, tgt := range targets {
		f.Add(uint8(i), tgt.valid, uint16(0), "")
		f.Add(uint8(i), tgt.valid, uint16(7), "a<&>\r\"\t")
		f.Add(uint8(i), tgt.valid, uint16(9), `<o:thing deep="1"/>`)
		f.Add(uint8(i), tgt.valid, uint16(14), "\x01")
	}
	for _, m := range poMutations {
		f.Add(uint8(0), m.xmlOutput, uint16(3), "x")
	}
	f.Fuzz(func(t *testing.T, which uint8, src string, at uint16, edit string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		tgt := targets[int(which)%len(targets)]
		doc, err := dom.Parse([]byte(src))
		if err != nil {
			return
		}
		v := looseValue(doc.DocumentElement())
		var nodes []*bind.Value
		var collect func(*bind.Value)
		collect = func(n *bind.Value) {
			nodes = append(nodes, n)
			for _, c := range n.Children {
				collect(c)
			}
			for _, s := range n.Segments {
				if s.Child != nil {
					collect(s.Child)
				}
			}
		}
		collect(v)
		n := nodes[int(at/6)%len(nodes)]
		switch at % 6 {
		case 0:
			n.Kind, n.Children, n.Segments, n.Simple = bind.KindSimple, nil, nil, str(edit)
		case 1:
			n.Attrs = append(n.Attrs, bind.Attr{Name: xsd.QName{Local: "a"}, Value: str(edit)})
		case 2:
			n.Name.Local = edit
		case 3:
			if n.Kind != bind.KindStruct {
				n.Kind, n.Children, n.Segments = bind.KindStruct, nil, nil
			}
			n.Children = append(n.Children, &bind.Value{Kind: bind.KindRaw, Wild: true, Raw: edit})
		case 4:
			segs := []bind.Segment{{Text: edit}}
			for _, c := range n.Children {
				segs = append(segs, bind.Segment{Child: c})
			}
			n.Kind, n.Children, n.Segments = bind.KindMixed, nil, append(segs, n.Segments...)
		case 5:
			n.TypeName = xsd.QName{Local: edit}
		}
		assertMarshalMatches(t, tgt.b, "fuzz", v)
	})
}
