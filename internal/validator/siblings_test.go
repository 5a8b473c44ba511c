package validator

// Differential tests over document-wide state that crosses sibling
// subtrees: IDs declared in one subtree and referenced or duplicated in
// another, violations on both sides of a sibling boundary, the violation
// cap, xsi:type resolution against a wide root scope, and identity
// constraints on a wide level. Each document runs through the stream
// machine and the DOM walk, which must agree violation for violation.
// The TestParallel names date from the sibling-split walk these inputs
// were written against; the inputs now hold the two remaining walks to
// each other.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/xsd"
)

// siblingSchema: a root over unbounded node subtrees carrying IDs,
// IDREFs, int leaves and recursion, and a derived type for xsi:type.
const siblingSchema = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
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

func siblingValidator(t *testing.T) *Validator {
	t.Helper()
	s, err := xsd.ParseString(siblingSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(s, nil)
}

func TestParallelSeamCorrectness(t *testing.T) {
	v := siblingValidator(t)
	cases := map[string]string{
		"all valid":         `<doc><node id="a"><v>1</v></node><node id="b" ref="a"><v>2</v></node><node ref="b"/></doc>`,
		"adjacent failures": `<doc><node><v>1</v><v>bad1</v></node><node><v>bad2</v><v>2</v></node></doc>`,
		"forward idref":     `<doc><node id="x"/><node ref="x"/></doc>`,
		"backward idref":    `<doc><node ref="y"/><node id="y"/></doc>`,
		"dangling idref":    `<doc><node id="x"/><node ref="ghost"/><node ref="x"/></doc>`,
		"deep cross-subtree idref": `<doc>
		  <node><sub><sub id="deep"/></sub></node>
		  <node><sub ref="deep"/></node>
		</doc>`,
		// The duplicate sits between two violations of the second
		// subtree and cites the first subtree's path.
		"duplicate id across subtrees":  `<doc><node id="d"/><node><v>bad</v><sub id="d"/><v>alsobad</v></node></doc>`,
		"triple duplicate":              `<doc><node id="t"/><node id="t"/><node id="t"/></doc>`,
		"local dup with earlier global": `<doc><node id="g"/><node><sub id="g"/><sub id="g"/></node></doc>`,
		"root attr id first":            `<doc rootId="r"><node id="r"/><node ref="r"/></doc>`,
		"normalized ids":                `<doc><node id=" n  1 "/><node id="n 1"/></doc>`,
		"xsi:type on siblings": `<doc xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">
		  <node xsi:type="ExtNodeType" extra="true"><v>1</v></node>
		  <node xsi:type="ExtNodeType" extra="notbool"/>
		  <node xsi:type="NoSuchType"/>
		</doc>`,
		"model failure in one subtree": `<doc><node><v>1</v></node><node><sub/><v>2</v></node><node><v>3</v></node></doc>`,
	}
	for label, src := range cases {
		streamDiff(t, v, label, src)
	}
}

// ordersSchema keys the items of each order and requires skus unique
// across all orders.
const ordersSchema = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
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

// TestParallelIdentityConstraints puts constraints on every subtree of a
// wide level, and one over the whole document: the machine tracks the
// outer scope and each inner one on the token stream at once, each
// judging the nodes its own selector picks, and agrees with the DOM walk.
func TestParallelIdentityConstraints(t *testing.T) {
	s, err := xsd.ParseString(ordersSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	for label, src := range map[string]string{
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
	} {
		streamDiff(t, v, label, src)
	}
}

// TestParallelViolationCapFallback puts one bad value under each of
// maxViolations+50 children: both walks keep exactly the first
// maxViolations, in document order.
func TestParallelViolationCapFallback(t *testing.T) {
	v := siblingValidator(t)
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < maxViolations+50; i++ {
		fmt.Fprintf(&sb, `<node><v>bad%d</v></node>`, i)
	}
	sb.WriteString("</doc>")
	streamDiff(t, v, "past the cap", sb.String())
	res := v.Stream().ValidateBytes([]byte(sb.String()))
	if len(res.Violations) != maxViolations {
		t.Fatalf("%d violations, want the cap %d", len(res.Violations), maxViolations)
	}
	for i, viol := range res.Violations {
		if !strings.Contains(viol.Msg, fmt.Sprintf(`"bad%d"`, i)) {
			t.Fatalf("violation %d = %v, want the one for bad%d", i, viol, i)
		}
	}
}

// TestParallelDegenerateShapes covers roots with no children, one child,
// and no declaration.
func TestParallelDegenerateShapes(t *testing.T) {
	v := siblingValidator(t)
	for label, src := range map[string]string{
		"empty root":   `<doc/>`,
		"single child": `<doc><node id="a" ref="a"><v>x</v></node></doc>`,
		"unknown root": `<wrong/>`,
	} {
		streamDiff(t, v, label, src)
	}
}

// TestParallelWideDocument runs hundreds of sibling subtrees with
// interleaved cross-subtree IDs and scattered violations.
func TestParallelWideDocument(t *testing.T) {
	v := siblingValidator(t)
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
	streamDiff(t, v, "wide document", sb.String())
}

// TestParallelSharedOuterScope resolves 400 xsi:type values against a
// root scope that declares more prefixes than a scope searches without
// its memo.
func TestParallelSharedOuterScope(t *testing.T) {
	v := siblingValidator(t)
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
	streamDiff(t, v, "21-prefix root scope", sb.String())
}
