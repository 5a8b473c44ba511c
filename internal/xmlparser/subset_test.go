package xmlparser_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/xmlparser"
)

// markupSubsets are internal subsets where only an ENTITY declaration may
// declare the entity x: the same text inside a comment, a processing
// instruction or a quoted literal declares nothing, and a literal's ']'
// does not end the subset. want is x's value, "" when x is undeclared.
var markupSubsets = []struct{ subset, want string }{
	{subset: `<!-- <!ENTITY x "boom"> -->`},
	{subset: `<?pi <!ENTITY x "boom">?>`},
	{subset: `<!ATTLIST a b CDATA "<!ENTITY x 'boom'>">`},
	{subset: `<!ATTLIST a b CDATA '<!ENTITY x "boom">'>`},
	{subset: `<!ENTITY y "<!ENTITY x 'boom'>">`},
	{subset: `<!-- c --><!ENTITY x "ok"><!ATTLIST a b CDATA "d">`, want: "ok"},
	{subset: `<!ENTITY % p "<!ENTITY x 'boom'>"><!ENTITY x "ok">`, want: "ok"},
	{subset: `<!ENTITY e SYSTEM "e.ent"><!ENTITY x "ok">`, want: "ok"},
	{subset: `<!ENTITY x "first"><!ENTITY x "second">`, want: "first"},
	{subset: `<!ENTITY x "a>]b">`, want: "a>]b"},
}

// TestEntityDeclaredOnlyByMarkup checks that only an ENTITY declaration
// declares an entity, in either decoder mode and in dtd.Parse.
func TestEntityDeclaredOnlyByMarkup(t *testing.T) {
	for _, tc := range markupSubsets {
		src := `<!DOCTYPE a [` + tc.subset + `]><a>&x;</a>`
		for _, r := range xmlparser.ReadModes(src) {
			if tc.want == "" {
				if r.Err == nil || !strings.Contains(r.Err.Error(), `reference to undeclared entity "x"`) {
					t.Errorf("%s mode, %q: got %v, want an undeclared x", r.Mode, src, r.Err)
				}
				continue
			}
			if r.Err != nil {
				t.Errorf("%s mode, %q: %v", r.Mode, src, r.Err)
				continue
			}
			if got := r.Tokens[len(r.Tokens)-2].Data(); got != tc.want {
				t.Errorf("%s mode, %q: text %q, want %q", r.Mode, src, got, tc.want)
			}
		}
		d, err := dtd.Parse("a", tc.subset)
		if err != nil {
			t.Errorf("dtd.Parse(%q): %v", tc.subset, err)
			continue
		}
		if got := d.Entities["x"]; got != tc.want {
			t.Errorf("dtd.Parse(%q): x = %q, want %q", tc.subset, got, tc.want)
		}
	}
}

func TestParseSubset(t *testing.T) {
	decls, err := xmlparser.ParseSubset(`
<!-- <!ELEMENT no EMPTY> --><?pi > ?> %pe;
<!ELEMENT doc (a|b)*>
<!ATTLIST doc k CDATA "x>y" n NMTOKEN #IMPLIED>
<!ENTITY e 'v"w'>
<!ENTITY % p "q">
<!ENTITY x PUBLIC "-//x" "x.ent">
<!NOTATION gif SYSTEM "image/gif">`)
	if err != nil {
		t.Fatal(err)
	}
	want := []xmlparser.Decl{
		{Kind: "ELEMENT", Name: "doc", Body: " (a|b)*"},
		{Kind: "ATTLIST", Name: "doc", Body: ` k CDATA "x>y" n NMTOKEN #IMPLIED`},
		{Kind: "ENTITY", Name: "e", Body: ` 'v"w'`, Value: `v"w`},
		{Kind: "ENTITY", Name: "p", Body: ` "q"`, Value: "q", Parameter: true},
		{Kind: "ENTITY", Name: "x", Body: ` PUBLIC "-//x" "x.ent"`, External: true},
		{Kind: "NOTATION", Name: "gif", Body: ` SYSTEM "image/gif"`},
	}
	if !reflect.DeepEqual(decls, want) {
		t.Errorf("decls:\n got %+v\nwant %+v", decls, want)
	}
	for _, bad := range []string{
		`<!WHAT>`,
		`<!ELEMENT a EMPTY`,
		`<!ELEMENTa EMPTY>`,
		`<!ATTLIST a b CDATA "x>`,
		`<!ENTITY x "v" junk>`,
		`<!ENTITY x>`,
		`<!ENTITY %x "v">`,
		`<!-- a -- b -->`,
		`<!-- a --->`,
		`<?xml version="1.0"?>`,
		`<?>`,
		`%pe`,
		`text`,
		`"quoted"`,
		"<!ENTITY x \"\x01\">",
	} {
		if _, err := xmlparser.ParseSubset(bad); err == nil {
			t.Errorf("ParseSubset(%q): no error", bad)
		}
		for _, r := range xmlparser.ReadModes(`<!DOCTYPE a [` + bad + `]><a/>`) {
			if r.Err == nil {
				t.Errorf("%s mode accepts the subset %q", r.Mode, bad)
			}
		}
	}
}

// FuzzInternalSubset reads arbitrary internal subsets in a DOCTYPE: both
// decoder modes register the same entities and give the same error, and
// when dtd.Parse accepts the subset, the decoder accepts the document.
func FuzzInternalSubset(f *testing.F) {
	for _, tc := range markupSubsets {
		f.Add(tc.subset)
	}
	for _, s := range []string{
		`<!ELEMENT r (a, (b|c)*, d?)><!ELEMENT a EMPTY><!ELEMENT b ANY><!ELEMENT c (#PCDATA|a)*><!ELEMENT d (#PCDATA)>`,
		`<!ATTLIST r id ID #REQUIRED k (x|y) "x" f NMTOKEN #FIXED "v" n NOTATION (g) #IMPLIED>`,
		`<!NOTATION g SYSTEM "g"> %pe; <?pi ]?> <!-- ] -->`,
		`<!WHAT>`,
		`<!ENTITY a "]">`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, subset string) {
		reads := xmlparser.ReadModes(`<!DOCTYPE r [` + subset + `]><r/>`)
		buf, rd := reads[0], reads[1]
		if fmt.Sprint(buf.Err) != fmt.Sprint(rd.Err) {
			t.Fatalf("%q: buffer error %v, reader error %v", subset, buf.Err, rd.Err)
		}
		if !reflect.DeepEqual(buf.Entities, rd.Entities) {
			t.Fatalf("%q: buffer entities %v, reader entities %v", subset, buf.Entities, rd.Entities)
		}
		if _, err := dtd.Parse("r", subset); err == nil && buf.Err != nil {
			t.Fatalf("dtd.Parse accepts %q, the decoder rejects it: %v", subset, buf.Err)
		}
	})
}
