package xmlparser

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// collect parses src in document mode and fails the test on error.
func collect(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return toks
}

// wantErr parses src and asserts an error mentioning substr.
func wantErr(t *testing.T, src, substr string) {
	t.Helper()
	_, err := Parse([]byte(src))
	if err == nil {
		t.Fatalf("Parse(%q): expected error containing %q, got nil", src, substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("Parse(%q): error %q does not contain %q", src, err, substr)
	}
}

func TestSimpleDocument(t *testing.T) {
	toks := collect(t, `<a><b x="1">hi</b></a>`)
	kinds := []Kind{KindStartElement, KindStartElement, KindText, KindEndElement, KindEndElement}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: kind %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[1].Attrs[0].Name.Local != "x" || toks[1].Attrs[0].Value != "1" {
		t.Errorf("attribute: got %+v", toks[1].Attrs)
	}
}

func TestSelfClosing(t *testing.T) {
	toks := collect(t, `<a><b/></a>`)
	if len(toks) != 4 {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	if !toks[1].SelfClosing || toks[1].Kind != KindStartElement {
		t.Errorf("expected self-closing start, got %+v", toks[1])
	}
	if toks[2].Kind != KindEndElement || toks[2].Name.Local != "b" {
		t.Errorf("expected synthesized end tag, got %+v", toks[2])
	}
}

func TestXMLDecl(t *testing.T) {
	toks := collect(t, `<?xml version="1.0" encoding="UTF-8"?><r/>`)
	if toks[0].Kind != KindXMLDecl {
		t.Fatalf("expected XMLDecl first, got %v", toks[0].Kind)
	}
	wantErr(t, `<?xml version="2.0"?><r/>`, "version")
	wantErr(t, `<?xml version="1.0" encoding="EBCDIC"?><r/>`, "unsupported encoding")
}

func TestPredefinedEntities(t *testing.T) {
	toks := collect(t, `<a>&lt;&gt;&amp;&apos;&quot;</a>`)
	if got := toks[1].Data(); got != `<>&'"` {
		t.Errorf("entity expansion: got %q", got)
	}
}

func TestCharacterReferences(t *testing.T) {
	toks := collect(t, `<a>&#65;&#x42;&#x1F600;</a>`)
	if got := toks[1].Data(); got != "AB\U0001F600" {
		t.Errorf("char refs: got %q", got)
	}
	wantErr(t, `<a>&#xD800;</a>`, "illegal character")
	wantErr(t, `<a>&#;</a>`, "malformed character reference")
	wantErr(t, `<a>&#x110000;</a>`, "out of range")
}

func TestInternalEntityDeclarations(t *testing.T) {
	src := `<!DOCTYPE a [<!ENTITY who "World"><!ENTITY greet "Hello &who;">]><a>&greet;!</a>`
	toks := collect(t, src)
	var text string
	for _, tok := range toks {
		if tok.Kind == KindText {
			text += tok.Data()
		}
	}
	if text != "Hello World!" {
		t.Errorf("entity chain: got %q", text)
	}
}

func TestRecursiveEntity(t *testing.T) {
	wantErr(t, `<!DOCTYPE a [<!ENTITY e "&e;">]><a>&e;</a>`, "too deep")
}

func TestUndeclaredEntity(t *testing.T) {
	wantErr(t, `<a>&nope;</a>`, "undeclared entity")
}

func TestMismatchedTags(t *testing.T) {
	wantErr(t, `<a><b></a></b>`, "does not match")
	wantErr(t, `<a>`, "not closed")
	wantErr(t, `</a>`, "unexpected end tag")
}

func TestMultipleRoots(t *testing.T) {
	wantErr(t, `<a/><b/>`, "more than one root")
	// But fine in fragment mode.
	if _, err := ParseFragment([]byte(`<a/><b/>text`), nil); err != nil {
		t.Errorf("fragment mode: %v", err)
	}
}

func TestContentOutsideRoot(t *testing.T) {
	wantErr(t, `hello<a/>`, "outside of root")
	wantErr(t, `<a/>trailing`, "outside of root")
	// Whitespace around the root is fine.
	collect(t, "\n  <a/>  \n")
}

func TestDuplicateAttributes(t *testing.T) {
	wantErr(t, `<a x="1" x="2"/>`, "duplicate attribute")
	wantErr(t, `<a xmlns:p="u" xmlns:q="u" p:x="1" q:x="2"/>`, "duplicate attribute")
}

func TestAttributeNormalization(t *testing.T) {
	toks := collect(t, "<a x=\"one\ttwo\nthree\"/>")
	if got := toks[0].Attrs[0].Value; got != "one two three" {
		t.Errorf("attr normalization: got %q", got)
	}
	wantErr(t, `<a x="a<b"/>`, "'<' is not permitted")
}

func TestCDATA(t *testing.T) {
	toks := collect(t, `<a><![CDATA[<not> & markup]]></a>`)
	if toks[1].Kind != KindCData || toks[1].Data() != "<not> & markup" {
		t.Errorf("cdata: got %+v", toks[1])
	}
	wantErr(t, `<a>]]></a>`, "']]>'")
}

func TestComments(t *testing.T) {
	toks := collect(t, `<!-- before --><a><!-- in --></a><!-- after -->`)
	n := 0
	for _, tok := range toks {
		if tok.Kind == KindComment {
			n++
		}
	}
	if n != 3 {
		t.Errorf("comments: got %d, want 3", n)
	}
	wantErr(t, `<a><!-- a -- b --></a>`, "'--'")
}

func TestProcessingInstructions(t *testing.T) {
	toks := collect(t, `<?go fmt?><a><?noop?></a>`)
	if toks[0].Kind != KindProcInst || toks[0].Target != "go" || toks[0].Data() != "fmt" {
		t.Errorf("PI: got %+v", toks[0])
	}
	if toks[2].Kind != KindProcInst || toks[2].Target != "noop" || toks[2].Data() != "" {
		t.Errorf("dataless PI: got %+v", toks[2])
	}
	wantErr(t, `<a><?xml bad?></a>`, "reserved")
}

func TestNamespaceResolution(t *testing.T) {
	src := `<p:a xmlns:p="urn:one" xmlns="urn:def"><b p:x="1"/></p:a>`
	toks := collect(t, src)
	if toks[0].Name.Space != "urn:one" || toks[0].Name.Local != "a" {
		t.Errorf("element ns: got %+v", toks[0].Name)
	}
	if toks[1].Name.Space != "urn:def" {
		t.Errorf("default ns should apply to <b>: got %+v", toks[1].Name)
	}
	var px Attr
	for _, a := range toks[1].Attrs {
		if a.Name.Local == "x" {
			px = a
		}
	}
	if px.Name.Space != "urn:one" {
		t.Errorf("prefixed attr ns: got %+v", px.Name)
	}
}

func TestNamespaceScoping(t *testing.T) {
	src := `<a xmlns="urn:o"><b xmlns="urn:i"/><c/></a>`
	toks := collect(t, src)
	spaces := map[string]string{}
	for _, tok := range toks {
		if tok.Kind == KindStartElement {
			spaces[tok.Name.Local] = tok.Name.Space
		}
	}
	if spaces["a"] != "urn:o" || spaces["b"] != "urn:i" || spaces["c"] != "urn:o" {
		t.Errorf("scoping: got %v", spaces)
	}
}

func TestUndeclaredPrefix(t *testing.T) {
	wantErr(t, `<p:a/>`, "undeclared namespace prefix")
	wantErr(t, `<a p:x="1"/>`, "undeclared namespace prefix")
}

func TestReservedPrefixes(t *testing.T) {
	wantErr(t, `<a xmlns:xml="urn:wrong"/>`, "cannot be rebound")
	wantErr(t, `<a xmlns:xmlns="urn:x"/>`, `"xmlns" cannot be declared`)
	// xml prefix usable without declaration.
	toks := collect(t, `<a xml:lang="en"/>`)
	if toks[0].Attrs[0].Name.Space != XMLNamespace {
		t.Errorf("xml: prefix: got %+v", toks[0].Attrs[0].Name)
	}
}

func TestDefaultNamespaceUndeclare(t *testing.T) {
	src := `<a xmlns="urn:o"><b xmlns=""/></a>`
	toks := collect(t, src)
	if toks[1].Name.Space != "" {
		t.Errorf("undeclared default ns: got %q", toks[1].Name.Space)
	}
}

func TestDoctypeExternalID(t *testing.T) {
	toks := collect(t, `<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0//EN" "http://x/dtd"><html/>`)
	if toks[0].Kind != KindDoctype || toks[0].Name.Local != "html" {
		t.Fatalf("doctype: got %+v", toks[0])
	}
	if !strings.HasPrefix(toks[0].Target, "PUBLIC") {
		t.Errorf("external id: got %q", toks[0].Target)
	}
}

func TestDoctypeInternalSubsetCaptured(t *testing.T) {
	src := `<!DOCTYPE a [<!ELEMENT a (#PCDATA)><!ATTLIST a x CDATA #IMPLIED>]><a/>`
	toks := collect(t, src)
	if !strings.Contains(toks[0].Data(), "<!ELEMENT a") || !strings.Contains(toks[0].Data(), "<!ATTLIST") {
		t.Errorf("internal subset: got %q", toks[0].Data())
	}
}

func TestLineColumnTracking(t *testing.T) {
	src := "<a>\n  <b>\n    <c></d>\n  </b>\n</a>"
	_, err := Parse([]byte(src))
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("expected SyntaxError, got %v", err)
	}
	if se.Pos.Line != 3 {
		t.Errorf("error line: got %d, want 3 (%v)", se.Pos.Line, se)
	}
}

func TestEOLNormalization(t *testing.T) {
	toks := collect(t, "<a>one\r\ntwo\rthree</a>")
	if got := toks[1].Data(); got != "one\ntwo\nthree" {
		t.Errorf("eol normalization: got %q", got)
	}
}

func TestIllegalCharacters(t *testing.T) {
	wantErr(t, "<a>\x01</a>", "illegal character")
	wantErr(t, "<a x=\"\x02\"/>", "illegal character")
}

func TestNameValidation(t *testing.T) {
	cases := []struct {
		s      string
		name   bool
		ncname bool
	}{
		{"abc", true, true},
		{"_x", true, true},
		{"a:b", true, false},
		{"1a", false, false},
		{"", false, false},
		{"a-b.c", true, true},
		{"héllo", true, true},
		{"-a", false, false},
	}
	for _, c := range cases {
		if got := IsName(c.s); got != c.name {
			t.Errorf("IsName(%q) = %v, want %v", c.s, got, c.name)
		}
		if got := IsNCName(c.s); got != c.ncname {
			t.Errorf("IsNCName(%q) = %v, want %v", c.s, got, c.ncname)
		}
	}
}

func TestNmtoken(t *testing.T) {
	if !IsNmtoken("123-abc") {
		t.Error("123-abc should be an Nmtoken")
	}
	if IsNmtoken("a b") || IsNmtoken("") {
		t.Error("spaces / empty are not Nmtokens")
	}
}

func TestTokenAttrLookup(t *testing.T) {
	toks := collect(t, `<a xmlns:p="urn:x" p:k="v" plain="w"/>`)
	tok := toks[0]
	if v, ok := tok.Attr("urn:x", "k"); !ok || v != "v" {
		t.Errorf("Attr(urn:x,k): %q %v", v, ok)
	}
	if v, ok := tok.Attr("", "plain"); !ok || v != "w" {
		t.Errorf("Attr(,plain): %q %v", v, ok)
	}
	if _, ok := tok.Attr("", "missing"); ok {
		t.Error("missing attribute reported present")
	}
}

func TestWhitespaceOnlyDocumentRejected(t *testing.T) {
	wantErr(t, "   \n ", "no root element")
}

func TestDeeplyNested(t *testing.T) {
	depth := 2000
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<d>")
	}
	sb.WriteString("x")
	for i := 0; i < depth; i++ {
		sb.WriteString("</d>")
	}
	toks := collect(t, sb.String())
	if len(toks) != 2*depth+1 {
		t.Errorf("deep nesting: got %d tokens", len(toks))
	}
}

func TestPositionOfTokens(t *testing.T) {
	toks := collect(t, "<a>\n<b/></a>")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("root pos: %v", toks[0].Pos)
	}
	if toks[2].Pos.Line != 2 {
		t.Errorf("<b/> line: %v", toks[2].Pos)
	}
}

func TestCustomEntities(t *testing.T) {
	toks, err := ParseFragment([]byte(`<a>&custom;</a>`), map[string]string{"custom": "VALUE"})
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Data() != "VALUE" {
		t.Errorf("custom entity: got %q", toks[1].Data())
	}
}

func TestEntityWithMarkupRejected(t *testing.T) {
	wantErr(t, `<!DOCTYPE a [<!ENTITY e "<b/>">]><a>&e;</a>`, "contains markup")
}

func TestAttributeEntityExpansion(t *testing.T) {
	toks := collect(t, `<!DOCTYPE a [<!ENTITY v "x&amp;y">]><a k="&v;"/>`)
	var start Token
	for _, tok := range toks {
		if tok.Kind == KindStartElement {
			start = tok
		}
	}
	if start.Attrs[0].Value != "x&y" {
		t.Errorf("attr entity: got %q", start.Attrs[0].Value)
	}
}

// TestIsNCNameMatchesRanges holds IsNCName's ASCII table path to the
// production's range definition, for one- and two-rune strings over every
// ASCII byte and a spread of non-ASCII runes, plus invalid UTF-8.
func TestIsNCNameMatchesRanges(t *testing.T) {
	ref := func(s string) bool {
		if s == "" {
			return false
		}
		for i, r := range s {
			if r == ':' {
				return false
			}
			if i == 0 {
				if !inRanges(r, nameStartRanges) {
					return false
				}
			} else if !inRanges(r, nameStartRanges) && !inRanges(r, nameExtraRanges) {
				return false
			}
		}
		return true
	}
	var runes []rune
	for r := rune(0); r < 0x400; r++ {
		runes = append(runes, r)
	}
	runes = append(runes, 0x2040, 0x203F, 0x3000, 0x3001, 0xFFFD, 0xFFFE, 0x10000, 0xEFFFF, 0xF0000)
	strs := []string{"\xff", "a\xff", "\xc3", "a\xc3b"}
	for _, r := range runes {
		strs = append(strs, string(r), "a"+string(r), string(r)+"a")
	}
	for _, s := range strs {
		if got, want := IsNCName(s), ref(s); got != want {
			t.Errorf("IsNCName(%q) = %v, want %v", s, got, want)
		}
	}
}

// TestNextFillsEveryField reuses one Token across a document holding
// every token kind, starting from a token that holds something in every
// field: each filled token must equal the one a fresh Token receives, so
// nothing (Attrs, SelfClosing, payload, Target) leaks from the token it
// overwrote.
func TestNextFillsEveryField(t *testing.T) {
	src := []byte("<?xml version=\"1.0\"?><!DOCTYPE r SYSTEM \"r.dtd\"><r a=\"1\" b=\"2\"><?p d?>text<e x=\"y\"/>&amp;<![CDATA[c]]><!--k--><f/>tail</r>")
	reused := Token{Kind: KindProcInst, Name: Name{Local: "stale"}, Target: "stale", Attrs: []Attr{{Value: "stale"}}, SelfClosing: true}
	reused.SetData("stale")
	dr, df := NewDecoder(src, nil), NewDecoder(src, nil)
	for n := 0; ; n++ {
		var fresh Token
		errR, errF := dr.Next(&reused), df.Next(&fresh)
		if errR != errF {
			t.Fatalf("token %d: reused err %v, fresh err %v", n, errR, errF)
		}
		if errR != nil {
			if errR != io.EOF {
				t.Fatal(errR)
			}
			return
		}
		got, want := reused, fresh
		got.Detach()
		want.Detach()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("token %d filled over an earlier token:\n  got:  %#v\n  want: %#v", n, got, want)
		}
	}
}
