package validator

// Seam-correctness tests for intra-document parallel validation: every
// document-global effect that crosses a depth-1 subtree boundary (IDs,
// IDREFs, violation ordering, the violation cap, xsi:type resolution,
// identity constraints) must come out byte-identical to the sequential
// walk. These are the adversarial hand-picked cases; the broad
// differential sweep lives in the repo-root E15 suite.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/xsd"
)

// seamSchema: a root with unbounded depth-1 node subtrees carrying IDs,
// IDREFs, simple-typed leaves (violation fodder), recursion for depth,
// and a derived type for xsi:type at the seam.
const seamSchema = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="doc">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="node" type="NodeType" minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
      <xsd:attribute name="rootId" type="xsd:ID"/>
    </xsd:complexType>
  </xsd:element>
  <xsd:complexType name="NodeType">
    <xsd:sequence>
      <xsd:element name="v" type="xsd:int" minOccurs="0" maxOccurs="unbounded"/>
      <xsd:element name="sub" type="NodeType" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
    <xsd:attribute name="id" type="xsd:ID"/>
    <xsd:attribute name="ref" type="xsd:IDREF"/>
  </xsd:complexType>
  <xsd:complexType name="ExtNodeType">
    <xsd:complexContent>
      <xsd:extension base="NodeType">
        <xsd:attribute name="extra" type="xsd:boolean"/>
      </xsd:extension>
    </xsd:complexContent>
  </xsd:complexType>
</xsd:schema>`

func seamValidator(t *testing.T) *Validator {
	t.Helper()
	s, err := xsd.ParseString(seamSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(s, nil)
}

// forceTinySplits lowers the fan-out threshold so the seam machinery
// engages on hand-sized documents (two siblings are enough to split).
func forceTinySplits(t *testing.T) {
	t.Helper()
	old := ParallelMinFanout
	ParallelMinFanout = 2
	t.Cleanup(func() { ParallelMinFanout = old })
}

// assertParallelParity validates doc sequentially and in parallel at
// several worker counts, demanding byte-identical results throughout.
func assertParallelParity(t *testing.T, v *Validator, label, src string) {
	t.Helper()
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	want := v.ValidateDocument(doc)
	for _, w := range []int{0, 2, 3, 8, 64} {
		got := v.ParallelValidate(doc, w)
		if !reflect.DeepEqual(normViols(want.Violations), normViols(got.Violations)) {
			t.Errorf("%s: workers=%d diverged:\n  seq: %v\n  par: %v", label, w, want.Violations, got.Violations)
		}
	}
}

func normViols(v []Violation) []Violation {
	if len(v) == 0 {
		return nil
	}
	return v
}

func TestParallelSeamCorrectness(t *testing.T) {
	forceTinySplits(t)
	v := seamValidator(t)
	cases := map[string]string{
		"all valid": `<doc><node id="a"><v>1</v></node><node id="b" ref="a"><v>2</v></node><node ref="b"/></doc>`,

		// Violations on both sides of a seam: last child of one subtree
		// and first child of the next are both invalid; order must hold.
		"violation at seam": `<doc><node><v>1</v><v>bad1</v></node><node><v>bad2</v><v>2</v></node></doc>`,

		// ID defined in one subtree, referenced from another — both
		// directions, including a dangling reference.
		"forward idref":  `<doc><node id="x"/><node ref="x"/></doc>`,
		"backward idref": `<doc><node ref="y"/><node id="y"/></doc>`,
		"dangling idref": `<doc><node id="x"/><node ref="ghost"/><node ref="x"/></doc>`,
		"deep cross-subtree idref": `<doc>
		  <node><sub><sub id="deep"/></sub></node>
		  <node><sub ref="deep"/></node>
		</doc>`,

		// Cross-seam duplicate: the violation must be spliced into the
		// second subtree's sequence at exactly the sequential position,
		// citing the first subtree's path.
		"duplicate id across subtrees": `<doc><node id="d"/><node><v>bad</v><sub id="d"/><v>alsobad</v></node></doc>`,
		// Triple duplicate across three subtrees: two spliced violations,
		// both citing the globally first declaration.
		"triple duplicate": `<doc><node id="t"/><node id="t"/><node id="t"/></doc>`,
		// Duplicate inside one subtree whose globally-first declaration is
		// in an earlier subtree: the local message must be rewritten to
		// cite the global first path.
		"local dup with earlier global": `<doc><node id="g"/><node><sub id="g"/><sub id="g"/></node></doc>`,
		// Root attribute declares the ID before any subtree runs.
		"root attr id first": `<doc rootId="r"><node id="r"/><node ref="r"/></doc>`,
		// ID value whitespace normalization must survive the journal.
		"normalized ids": `<doc><node id=" n  1 "/><node id="n 1"/></doc>`,

		// xsi:type at depth 1: type resolution happens inside the worker.
		"xsi:type at seam": `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
		  <node xsi:type="ExtNodeType" extra="true"><v>1</v></node>
		  <node xsi:type="ExtNodeType" extra="notbool"/>
		  <node xsi:type="NoSuchType"/>
		</doc>`,

		// Content-model failure at depth 1 (sub before v violates the
		// sequence) next to clean subtrees.
		"model failure in one subtree": `<doc><node><v>1</v></node><node><sub/><v>2</v></node><node><v>3</v></node></doc>`,
	}
	for label, src := range cases {
		assertParallelParity(t, v, label, src)
	}
}

// TestParallelIdentityConstraints puts key/keyref/unique constraints on
// the depth-1 subtrees (and via .//sku on the whole document): the
// constraint walk runs inside workers for children and in the parent for
// the root, and must not perturb verdicts.
func TestParallelIdentityConstraints(t *testing.T) {
	const src = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
	  <xsd:complexType name="ItemType">
	    <xsd:sequence><xsd:element name="sku" type="xsd:string" minOccurs="0"/></xsd:sequence>
	    <xsd:attribute name="partNum" type="xsd:string"/>
	  </xsd:complexType>
	  <xsd:complexType name="RefType">
	    <xsd:attribute name="part" type="xsd:string" use="required"/>
	  </xsd:complexType>
	  <xsd:complexType name="OrderType">
	    <xsd:sequence>
	      <xsd:element name="item" type="ItemType" minOccurs="0" maxOccurs="unbounded"/>
	      <xsd:element name="ref" type="RefType" minOccurs="0" maxOccurs="unbounded"/>
	    </xsd:sequence>
	  </xsd:complexType>
	  <xsd:element name="orders">
	    <xsd:complexType>
	      <xsd:sequence>
	        <xsd:element ref="order" minOccurs="0" maxOccurs="unbounded"/>
	      </xsd:sequence>
	    </xsd:complexType>
	    <xsd:unique name="allSkus">
	      <xsd:selector xpath=".//item"/>
	      <xsd:field xpath="sku"/>
	    </xsd:unique>
	  </xsd:element>
	  <xsd:element name="order" type="OrderType">
	    <xsd:key name="pk">
	      <xsd:selector xpath="item"/>
	      <xsd:field xpath="@partNum"/>
	    </xsd:key>
	    <xsd:keyref name="pref" refer="pk">
	      <xsd:selector xpath="ref"/>
	      <xsd:field xpath="@part"/>
	    </xsd:keyref>
	  </xsd:element>
	</xsd:schema>`
	forceTinySplits(t)
	s, err := xsd.ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	cases := map[string]string{
		"all constraints satisfied": `<orders>
		  <order><item partNum="1"><sku>a</sku></item><ref part="1"/></order>
		  <order><item partNum="1"><sku>b</sku></item><ref part="1"/></order>
		</orders>`,
		"keyref broken in second subtree": `<orders>
		  <order><item partNum="1"><sku>a</sku></item></order>
		  <order><ref part="missing"/></order>
		</orders>`,
		"duplicate key inside one subtree": `<orders>
		  <order><item partNum="1"/><item partNum="1"/></order>
		  <order><item partNum="1"/></order>
		</orders>`,
		"document-wide unique broken across subtrees": `<orders>
		  <order><item partNum="1"><sku>same</sku></item></order>
		  <order><item partNum="2"><sku>same</sku></item></order>
		</orders>`,
	}
	for label, doc := range cases {
		assertParallelParity(t, v, label, doc)
	}
}

// TestParallelViolationCapFallback drives the joined total past
// maxViolations: the chunks keep every violation and the join truncates
// at the cap, so the capped prefix is identical to the sequential one.
func TestParallelViolationCapFallback(t *testing.T) {
	v := seamValidator(t)
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < maxViolations+50; i++ {
		fmt.Fprintf(&sb, `<node><v>bad%d</v></node>`, i)
	}
	sb.WriteString("</doc>")
	doc, err := dom.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	want := v.ValidateDocument(doc)
	if len(want.Violations) != maxViolations {
		t.Fatalf("setup: sequential produced %d violations, want cap %d", len(want.Violations), maxViolations)
	}
	got := v.ParallelValidate(doc, 8)
	if !reflect.DeepEqual(want.Violations, got.Violations) {
		t.Fatalf("capped runs diverged:\n  seq tail: %v\n  par tail: %v",
			want.Violations[maxViolations-3:], got.Violations[len(got.Violations)-3:])
	}
}

// TestParallelDegenerateShapes covers the shapes that must bypass the
// worker pool: no root, unknown root, single child, simple root, and
// worker counts at and below one.
func TestParallelDegenerateShapes(t *testing.T) {
	v := seamValidator(t)
	for label, src := range map[string]string{
		"empty root":   `<doc/>`,
		"single child": `<doc><node id="a" ref="a"><v>x</v></node></doc>`,
		"unknown root": `<wrong/>`,
	} {
		assertParallelParity(t, v, label, src)
	}
}

func mustSchema(t *testing.T, src string) *xsd.Schema {
	t.Helper()
	s, err := xsd.ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParallelWideDocument is a smoke-scale run: hundreds of depth-1
// subtrees with interleaved cross-subtree IDs and scattered violations,
// checked at several worker counts (run under -race in CI).
func TestParallelWideDocument(t *testing.T) {
	v := seamValidator(t)
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 400; i++ {
		switch i % 5 {
		case 0:
			fmt.Fprintf(&sb, `<node id="id%d"><v>%d</v></node>`, i, i)
		case 1:
			fmt.Fprintf(&sb, `<node ref="id%d"><v>%d</v></node>`, i-1, i)
		case 2:
			fmt.Fprintf(&sb, `<node><v>not-an-int-%d</v></node>`, i)
		case 3:
			fmt.Fprintf(&sb, `<node id="id%d"/>`, i-3) // duplicate of case 0
		default:
			fmt.Fprintf(&sb, `<node><sub id="s%d"><sub ref="s%d"/></sub></node>`, i, i)
		}
	}
	sb.WriteString("</doc>")
	assertParallelParity(t, v, "wide document", sb.String())
}

// TestParallelSharedOuterScope resolves xsi:type values in many chunks at
// once against the root's scope, which declares more prefixes than a
// scope searches without its memo: the chunks' lookups share that memo
// (run under -race in CI).
func TestParallelSharedOuterScope(t *testing.T) {
	v := seamValidator(t)
	var sb strings.Builder
	sb.WriteString(`<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"`)
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, ` xmlns:p%d="urn:p%d"`, i, i)
	}
	sb.WriteString(">")
	for i := 0; i < 400; i++ {
		if i%3 == 0 {
			sb.WriteString(`<node xsi:type="ExtNodeType" extra="true"/>`)
		} else {
			fmt.Fprintf(&sb, `<node xsi:type="p%d:ExtNodeType"/>`, i%20)
		}
	}
	sb.WriteString("</doc>")
	assertParallelParity(t, v, "shared outer scope", sb.String())
}
