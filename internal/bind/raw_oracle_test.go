package bind

// The raw-fragment serializer the validation machine's raw writer
// replaced, kept unchanged as a test oracle: it renders a skipped wildcard
// subtree from its DOM node. TestRawWriterMatchesOracle holds the machine's
// token-stream text to it.

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// rawFragment serializes el so that it stands alone: the namespace
// bindings its names borrow from ancestors are declared on its start tag.
func rawFragment(el *dom.Element) string {
	var decls []byte
	var declared []string // prefixes declared on the start tag ("" is the default namespace)
	var walk func(e *dom.Element, scope []string)
	walk = func(e *dom.Element, scope []string) {
		for _, a := range e.Attributes() {
			if n := a.Name(); n.Space == xmlparser.XMLNSNamespace {
				if n.Prefix == "" {
					scope = append(scope, "")
				} else {
					scope = append(scope, n.Local)
				}
			}
		}
		need := func(prefix, space string) {
			if prefix == "xml" || prefix == "" && space == "" ||
				slices.Contains(scope, prefix) || slices.Contains(declared, prefix) {
				return
			}
			declared = append(declared, prefix)
			if prefix == "" {
				decls = append(decls, ` xmlns="`...)
			} else {
				decls = append(append(append(decls, " xmlns:"...), prefix...), `="`...)
			}
			decls, _ = xmlparser.AppendEscaped(decls, space, true)
			decls = append(decls, '"')
		}
		need(e.Name().Prefix, e.Name().Space)
		for _, a := range e.Attributes() {
			if n := a.Name(); n.Prefix != "" && n.Space != xmlparser.XMLNSNamespace {
				need(n.Prefix, n.Space)
			}
		}
		for c := e.FirstChild(); c != nil; c = c.NextSibling() {
			if ce, ok := c.(*dom.Element); ok {
				walk(ce, scope[:len(scope):len(scope)])
			}
		}
	}
	walk(el, nil)
	raw := dom.ToString(el)
	if len(decls) == 0 {
		return raw
	}
	n := 1 + len(el.TagName()) // "<" and the tag name
	return raw[:n] + string(decls) + raw[n:]
}

// TestRawWriterMatchesOracle decodes envelopes whose lax wildcard takes
// undeclared subtrees, from the decoder, from a reader and from a parsed
// tree, and holds each raw child's text to rawFragment of its node.
func TestRawWriterMatchesOracle(t *testing.T) {
	schema, err := xsd.ParseString(schemas.WildcardEnvelopeXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := New(schema, nil)
	for _, doc := range []string{
		// Nested redeclared and default prefixes, borrowed and local.
		`<envelope xmlns:o="urn:o" xmlns:p="urn:p"><o:a p:x="1"><b xmlns="urn:d"><c/><o:c xmlns:o="urn:x" o:y="2"/></b><p:e xmlns:p="urn:q"/><p:f/></o:a><o:g xmlns="urn:e"><h xmlns=""/></o:g></envelope>`,
		// Empty elements, written either way.
		`<envelope><a/><b></b><c><d></d></c></envelope>`,
		// CDATA sections, one ending in "]]", comments and PIs.
		`<envelope><a><![CDATA[x]]]]><![CDATA[>y<&]]><!-- c - d --><?pi data?><?bare?></a></envelope>`,
		// Text and attributes that need escaping.
		`<envelope><a t="&lt;&amp;&quot;'&gt;&#9;&#10;&#13;" u="">&lt;&gt;&amp;"'&#13;&#9;
</a><b>  mixed <c>text</c> tail </b></envelope>`,
	} {
		parsed, err := dom.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, el := range parsed.DocumentElement().ChildElements() {
			want = append(want, rawFragment(el))
		}
		fromDOM, res := b.DecodeDocument(parsed)
		if fromDOM == nil {
			t.Fatalf("%s: %v", doc, res.Violations)
		}
		fromBytes, res, err := b.DecodeStreamBytes([]byte(doc))
		if fromBytes == nil {
			t.Fatalf("%s: %v %v", doc, res.Violations, err)
		}
		fromReader, res, err := b.DecodeReader(context.Background(), strings.NewReader(doc))
		if fromReader == nil {
			t.Fatalf("%s: %v %v", doc, res.Violations, err)
		}
		for name, v := range map[string]*Value{"tree": fromDOM, "bytes": fromBytes, "reader": fromReader} {
			var got []string
			for _, c := range v.Children {
				got = append(got, c.Raw)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s from %s:\n  got  %q\n  want %q", doc, name, got, want)
			}
		}
	}
}

// TestRawWriterMatchesOracleOnBuiltTrees decodes a built tree with what
// no parse yields: an empty text node, which makes its element non-empty
// to dom.ToString, and CDATA holding "]]>".
func TestRawWriterMatchesOracleOnBuiltTrees(t *testing.T) {
	schema, err := xsd.ParseString(schemas.WildcardEnvelopeXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := New(schema, nil)
	doc := dom.NewDocument()
	env := doc.CreateElement("envelope")
	doc.AppendChild(env)
	for _, kid := range []dom.Node{doc.CreateTextNode(""), doc.CreateCDATASection("a]]>b]]>"), doc.CreateComment("c")} {
		el := doc.CreateElement("raw")
		el.AppendChild(kid)
		env.AppendChild(el)
	}
	v, res := b.DecodeDocument(doc)
	if v == nil {
		t.Fatal(res.Violations)
	}
	for i, el := range env.ChildElements() {
		if got, want := v.Children[i].Raw, rawFragment(el); got != want {
			t.Errorf("child %d: got %q, want %q", i, got, want)
		}
	}
}
