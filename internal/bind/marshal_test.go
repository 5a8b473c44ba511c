package bind

import (
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/schemas"
	"repro/internal/wml"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// tokenView is the part of a token the validator reads.
type tokenView struct {
	Kind        xmlparser.Kind
	Name        xmlparser.Name
	Data        string
	Attrs       []xmlparser.Attr
	SelfClosing bool
}

func viewOf(t xmlparser.Token) tokenView {
	v := tokenView{Kind: t.Kind, Name: t.Name, SelfClosing: t.SelfClosing}
	if t.Kind == xmlparser.KindText {
		v.Data = t.Data()
	}
	for _, a := range t.Attrs {
		a.Pos = xmlparser.Pos{}
		v.Attrs = append(v.Attrs, a)
	}
	return v
}

// walkTokens runs the marshal walk as a token source and reports its
// tokens, the bytes written and whether it handed over to a decoder.
func walkTokens(t *testing.T, v *Value) ([]tokenView, []byte, bool) {
	t.Helper()
	e := newEncoder(v, true)
	var toks []tokenView
	var tok xmlparser.Token
	for {
		err := e.Next(&tok)
		if err != nil {
			if e.err != nil {
				t.Fatalf("walk: %v", e.err)
			}
			return toks, e.out, e.dec != nil
		}
		toks = append(toks, viewOf(tok))
	}
}

func decodedTokens(t *testing.T, src []byte) []tokenView {
	t.Helper()
	dec := xmlparser.NewDecoder(src, nil)
	var toks []tokenView
	var tok xmlparser.Token
	for {
		err := dec.Next(&tok)
		if err != nil {
			if err != io.EOF {
				t.Fatalf("decode %s: %v", src, err)
			}
			return toks
		}
		toks = append(toks, viewOf(tok))
	}
}

func mustDecode(t *testing.T, xsdSrc, doc string) (*Binder, *Value) {
	t.Helper()
	schema, err := xsd.ParseString(xsdSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := New(schema, nil)
	v, res := b.DecodeBytes([]byte(doc))
	if v == nil {
		t.Fatalf("decode: %v", res.Violations)
	}
	return b, v
}

// TestWalkTokensMatchDecoder checks the walk's contract with the
// validator: the tokens it yields are the ones a decoder reads from the
// bytes it wrote, and only a raw fragment or unparseable text makes it
// hand over to a decoder.
func TestWalkTokensMatchDecoder(t *testing.T) {
	_, po := mustDecode(t, schemas.PurchaseOrderXSD, schemas.PurchaseOrderDoc)
	odd := *po.Children[2] // <comment>
	odd.Simple = xsdtypes.Value{Kind: xsdtypes.VString, Str: "a<b&c>d\r\n]]> \u2028\t\"'"}
	withOdd := *po
	withOdd.Children = append([]*Value{po.Children[0], po.Children[1], &odd}, po.Children[3:]...)
	_, card := mustDecode(t, wml.Schema, `<wml><card id="c1" title="T&amp;&quot;"><p align="left">Hello <b>bold</b> and <a href="http://example.org/?a=1&amp;b=2" title="t">link</a> tail</p></card></wml>`)
	_, ns := mustDecode(t, schemas.NamespacedOrderXSD, `<order xmlns="urn:example:po" priority="2"><id>7</id><note>n</note></order>`)
	_, typed := mustDecode(t, schemas.AddressDerivationXSD, `<address xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="USAddress"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></address>`)
	_, wild := mustDecode(t, schemas.WildcardEnvelopeXSD, schemas.WildcardEnvelopeDoc)

	for _, tc := range []struct {
		name    string
		v       *Value
		resumed bool
	}{
		{"purchase order", po, false},
		{"escaped text", &withOdd, false},
		{"mixed content", card, false},
		{"namespaces", ns, false},
		{"xsi:type", typed, false},
		{"raw fragment", wild, true},
	} {
		toks, out, resumed := walkTokens(t, tc.v)
		if resumed != tc.resumed {
			t.Errorf("%s: handed over to a decoder: %v, want %v", tc.name, resumed, tc.resumed)
		}
		if want := decodedTokens(t, out); !reflect.DeepEqual(toks, want) {
			t.Errorf("%s: tokens differ from the decoder's over\n%s\n  walk:    %+v\n  decoder: %+v", tc.name, out, toks, want)
		}
		if s := Serialize(tc.v); string(s) != string(out) {
			t.Errorf("%s: Serialize wrote\n%s\nthe walk wrote\n%s", tc.name, s, out)
		}
	}
}

// TestAppendJSONStringMatchesEncodingJSON checks the append-based escaper
// byte for byte against encoding/json.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	pieces := []string{"a", "<", ">", "&", `"`, `\`, "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\u2029", "\uFFFD", "\xff", "\xe2\x80", "\U0001D11E"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		s := sb.String()
		want, _ := json.Marshal(s)
		if got := AppendJSONString(nil, s); string(got) != string(want) {
			t.Fatalf("%q: got %s, encoding/json %s", s, got, want)
		}
	}
}

// TestRawFragmentStandsAlone: a raw wildcard fragment declares, once
// each, the prefixes it borrows from its ancestors, so the marshaled
// document parses and decodes to the same value.
func TestRawFragmentStandsAlone(t *testing.T) {
	b, v := mustDecode(t, schemas.WildcardEnvelopeXSD,
		`<envelope xmlns:o="urn:o" xmlns:p="urn:p"><o:a p:x="1"><o:b/><p:c xmlns:p="urn:q"/><p:e/></o:a><o:d/></envelope>`)
	var raws []string
	for _, c := range v.Children {
		raws = append(raws, c.Raw)
	}
	want := []string{
		`<o:a xmlns:o="urn:o" xmlns:p="urn:p" p:x="1"><o:b/><p:c xmlns:p="urn:q"/><p:e/></o:a>`,
		`<o:d xmlns:o="urn:o"/>`,
	}
	if !reflect.DeepEqual(raws, want) {
		t.Fatalf("raw fragments:\n  got  %q\n  want %q", raws, want)
	}
	out, err := b.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	back, res := b.DecodeBytes(out)
	if back == nil {
		t.Fatalf("re-decode %s: %v", out, res.Violations)
	}
	if got, want := string(b.JSON(back)), string(b.JSON(v)); got != want {
		t.Errorf("round trip changed the value:\n  got  %s\n  want %s", got, want)
	}
}
