package wildgen

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/validator"
	"repro/internal/vdom"
)

// raw parses src and returns its root element, for wildcard values.
func raw(t *testing.T, src string) *dom.Element {
	t.Helper()
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc.DocumentElement()
}

// checkWritten compares the written bytes of root with want and runs
// them through the stream machine and Verify.
func checkWritten(t *testing.T, root vdom.ElementNode, want string) {
	t.Helper()
	out, err := vdom.MarshalString(root)
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("got  %s\nwant %s", out, want)
	}
	if res := validator.New(RT.Schema, nil).Stream().ValidateBytes([]byte(out)); !res.OK() {
		t.Errorf("written bytes invalid:\n%v\n%s", res.Err(), out)
	}
	if err := RT.Verify(root); err != nil {
		t.Error(err)
	}
}

// TestVDOMWildcardChildren: raw elements in the lax xs:any slot are
// written as the DOM serializer writes them — prefixed names and their
// declarations, escaped attribute values and text, nested raw elements,
// CDATA and comments — and a known global among them still validates.
func TestVDOMWildcardChildren(t *testing.T) {
	d := NewDocument()
	env := d.CreateEnvelopeType()
	if err := env.SetVersion("2"); err != nil {
		t.Fatal(err)
	}
	env.AddAny(NewAnyElement(raw(t, `<extra>first &amp; &lt;last&gt;</extra>`)))
	env.AddAny(NewAnyElement(raw(t, `<o:thing xmlns:o="urn:other" q='say "hi"' tab="a&#x9;b&#xA;c">`+
		`<o:more deep="1"/>run one &#xD;<![CDATA[<cdata>]]><!--note-->run two<o:empty></o:empty></o:thing>`)))
	env.AddAny(NewAnyElement(raw(t, `<record><key>k</key><value>v&amp;w</value></record>`)))
	checkWritten(t, d.CreateEnvelope(env), `<envelope version="2"><extra>first &amp; &lt;last&gt;</extra>`+
		`<o:thing xmlns:o="urn:other" q="say &quot;hi&quot;" tab="a&#x9;b&#xA;c"><o:more deep="1"/>`+
		`run one &#xD;<![CDATA[<cdata>]]><!--note-->run two<o:empty/></o:thing>`+
		`<record><key>k</key><value>v&amp;w</value></record></envelope>`)
}

// TestVDOMAnyTypeChildren: an xs:anyType element writes its raw
// children, then its text runs, escaped.
func TestVDOMAnyTypeChildren(t *testing.T) {
	d := NewDocument()
	p := d.CreatePayload()
	p.AddRaw(raw(t, `<a:x xmlns:a="urn:a" k="1&lt;2"><a:y>in</a:y></a:x>`))
	p.AddRaw(raw(t, `<plain/>`))
	p.AddText("one < two & three > zero")
	p.AddText("")
	p.AddText(" tail")
	checkWritten(t, d.CreatePayload(), `<payload/>`)
	checkWritten(t, p, `<payload><a:x xmlns:a="urn:a" k="1&lt;2"><a:y>in</a:y></a:x><plain/>`+
		`one &lt; two &amp; three &gt; zero tail</payload>`)
}
