package validator

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/xsd"
)

// fallbackIDSchema puts an identity constraint on group, so each group
// subtree is an identity scope, while node elements are not. IDs and
// IDREFs cross the scopes' edges both ways.
const fallbackIDSchema = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="doc">
    <xs:complexType>
      <xs:choice maxOccurs="unbounded">
        <xs:element name="node">
          <xs:complexType>
            <xs:attribute name="id" type="xs:ID"/>
            <xs:attribute name="ref" type="xs:IDREF"/>
          </xs:complexType>
        </xs:element>
        <xs:element name="group">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="e" maxOccurs="unbounded">
                <xs:complexType>
                  <xs:simpleContent>
                    <xs:extension base="xs:int">
                      <xs:attribute name="id" type="xs:ID"/>
                      <xs:attribute name="ref" type="xs:IDREF"/>
                    </xs:extension>
                  </xs:simpleContent>
                </xs:complexType>
              </xs:element>
            </xs:sequence>
          </xs:complexType>
          <xs:unique name="u"><xs:selector xpath="e"/><xs:field xpath="@id"/></xs:unique>
        </xs:element>
      </xs:choice>
    </xs:complexType>
  </xs:element>
</xs:schema>`

// TestLazyPathsAcrossFallback pins the paths of violations whose locations
// were recorded inside an identity scope that has since closed: a
// duplicate citing an ID declared in a group, and a dangling IDREF from
// one, resolved only at the document's end.
func TestLazyPathsAcrossFallback(t *testing.T) {
	s, err := xsd.ParseString(fallbackIDSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	src := `<doc><node id="a"/>` +
		`<group><e id="b">1</e><e id="c">x</e><e id="a">2</e></group>` +
		`<group><e id="d" ref="zz">3</e><e>4</e></group>` +
		`<node id="c" ref="d"/><node id="b"/></doc>`
	streamDiff(t, v, "fallback ids", src)
	res := v.Stream().ValidateBytes([]byte(src))
	want := []Violation{
		{Path: "/doc/group/e[2]"},
		{Path: "/doc/group/e[3]/@id", Msg: `duplicate ID "a" (first declared at /doc/node/@id)`},
		{Path: "/doc/node[2]/@id", Msg: `duplicate ID "c" (first declared at /doc/group/e[2]/@id)`},
		{Path: "/doc/node[3]/@id", Msg: `duplicate ID "b" (first declared at /doc/group/e/@id)`},
		{Path: "/doc/group[2]/e/@ref", Msg: `IDREF "zz" does not match any ID`},
	}
	if len(res.Violations) != len(want) {
		t.Fatalf("got %d violations, want %d:\n%v", len(res.Violations), len(want), res.Err())
	}
	for i, w := range want {
		got := res.Violations[i]
		if got.Path != w.Path || (w.Msg != "" && got.Msg != w.Msg) {
			t.Errorf("violation %d = %v, want %v", i, got, w)
		}
	}
}

// TestLazyPathPredicates checks positional predicates rendered by walking
// up the DOM: same-named siblings count, other names and text do not.
func TestLazyPathPredicates(t *testing.T) {
	s, err := xsd.ParseString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r">
    <xs:complexType>
      <xs:choice maxOccurs="unbounded">
        <xs:element name="a" type="xs:int"/>
        <xs:element name="b" type="xs:int"/>
      </xs:choice>
    </xs:complexType>
  </xs:element>
</xs:schema>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 1; i <= 12; i++ {
		val := "1"
		if i%5 == 0 {
			val = "x"
		}
		fmt.Fprintf(&sb, "<a>%s</a>\n<b>%s</b>", val, val)
	}
	sb.WriteString("</r>")
	streamDiff(t, v, "predicates", sb.String())
	doc, err := dom.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, viol := range v.ValidateDocument(doc).Violations {
		paths = append(paths, viol.Path)
	}
	if got, want := strings.Join(paths, " "), "/r/a[5] /r/b[5] /r/a[10] /r/b[10]"; got != want {
		t.Errorf("paths = %s, want %s", got, want)
	}
}
