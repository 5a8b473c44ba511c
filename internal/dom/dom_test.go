package dom

import (
	"errors"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Document {
	t.Helper()
	d, err := ParseString(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return d
}

func TestParseBuildsTree(t *testing.T) {
	d := mustParse(t, `<a x="1"><b>hi</b><c/></a>`)
	root := d.DocumentElement()
	if root == nil || root.TagName() != "a" {
		t.Fatalf("root: %v", root)
	}
	if root.GetAttribute("x") != "1" {
		t.Errorf("attr x: %q", root.GetAttribute("x"))
	}
	kids := root.ChildElements()
	if len(kids) != 2 || kids[0].TagName() != "b" || kids[1].TagName() != "c" {
		t.Fatalf("children: %v", kids)
	}
	if kids[0].TextContent() != "hi" {
		t.Errorf("text content: %q", kids[0].TextContent())
	}
}

func TestRoundTrip(t *testing.T) {
	cases := []string{
		`<a><b x="1">text</b><c/></a>`,
		`<a>one<b/>two</a>`,
		`<r><!--c--><?pi data?><![CDATA[raw <markup>]]></r>`,
		`<p:a xmlns:p="urn:x" p:k="v"><p:b/></p:a>`,
	}
	for _, src := range cases {
		d := mustParse(t, src)
		var sb strings.Builder
		if err := Serialize(&sb, d, &SerializeOptions{OmitXMLDecl: true}); err != nil {
			t.Fatalf("serialize: %v", err)
		}
		// Reparse the output and compare canonical dumps.
		d2 := mustParse(t, sb.String())
		if Dump(d) != Dump(d2) {
			t.Errorf("round trip changed tree for %q:\nfirst:\n%s\nsecond:\n%s", src, Dump(d), Dump(d2))
		}
	}
}

func TestEscaping(t *testing.T) {
	d := NewDocument()
	e := d.CreateElement("e")
	e.SetAttribute("a", `<&">`)
	_, _ = e.AppendChild(d.CreateTextNode(`a<b & c>d`))
	_, _ = d.AppendChild(e)
	got := ToString(e)
	want := `<e a="&lt;&amp;&quot;>">a&lt;b &amp; c&gt;d</e>`
	if got != want {
		t.Errorf("escaping:\ngot  %s\nwant %s", got, want)
	}
	// The output must reparse to the same values.
	d2 := mustParse(t, got)
	r := d2.DocumentElement()
	if r.GetAttribute("a") != `<&">` || r.TextContent() != `a<b & c>d` {
		t.Errorf("reparse: attr=%q text=%q", r.GetAttribute("a"), r.TextContent())
	}
}

func TestCDATASplitting(t *testing.T) {
	d := NewDocument()
	e := d.CreateElement("e")
	_, _ = e.AppendChild(d.CreateCDATASection("a]]>b"))
	_, _ = d.AppendChild(e)
	out := ToString(e)
	d2 := mustParse(t, out)
	if got := d2.DocumentElement().TextContent(); got != "a]]>b" {
		t.Errorf("cdata round trip: %q (serialized %q)", got, out)
	}
}

func TestSingleRootEnforced(t *testing.T) {
	d := NewDocument()
	_, _ = d.AppendChild(d.CreateElement("a"))
	_, err := d.AppendChild(d.CreateElement("b"))
	if !errors.Is(err, ErrHierarchy) {
		t.Errorf("second root: got %v", err)
	}
	// Comments and PIs are fine.
	if _, err := d.AppendChild(d.CreateComment("ok")); err != nil {
		t.Errorf("comment at doc level: %v", err)
	}
}

func TestTextCannotHaveChildren(t *testing.T) {
	d := NewDocument()
	txt := d.CreateTextNode("x")
	_, err := txt.AppendChild(d.CreateTextNode("y"))
	if !errors.Is(err, ErrHierarchy) {
		t.Errorf("text child: got %v", err)
	}
}

func TestCycleRejected(t *testing.T) {
	d := NewDocument()
	a := d.CreateElement("a")
	b := d.CreateElement("b")
	_, _ = a.AppendChild(b)
	if _, err := b.AppendChild(a); !errors.Is(err, ErrHierarchy) {
		t.Errorf("cycle: got %v", err)
	}
	if _, err := a.AppendChild(a); !errors.Is(err, ErrHierarchy) {
		t.Errorf("self append: got %v", err)
	}

	// A childless node takes the short check: only the parent itself can
	// close a cycle.
	leaf := d.CreateElement("leaf")
	if _, err := leaf.AppendChild(leaf); !errors.Is(err, ErrHierarchy) {
		t.Errorf("childless self append: got %v", err)
	}

	// g > p > c: every insertion of g under c is a cycle.
	g, p, c, x := d.CreateElement("g"), d.CreateElement("p"), d.CreateElement("c"), d.CreateElement("x")
	_, _ = g.AppendChild(p)
	_, _ = p.AppendChild(c)
	_, _ = c.AppendChild(x)
	if _, err := c.AppendChild(g); !errors.Is(err, ErrHierarchy) {
		t.Errorf("grandparent under grandchild: got %v", err)
	}
	if _, err := c.InsertBefore(g, x); !errors.Is(err, ErrHierarchy) {
		t.Errorf("InsertBefore of an ancestor: got %v", err)
	}
	if _, err := c.ReplaceChild(g, x); !errors.Is(err, ErrHierarchy) {
		t.Errorf("ReplaceChild with an ancestor: got %v", err)
	}
	if x.ParentNode() != Node(c) {
		t.Errorf("failed ReplaceChild did not restore the old child")
	}
	// A fragment holding an ancestor: g stays p's ancestor wherever g sits.
	frag := d.CreateDocumentFragment()
	if _, err := frag.AppendChild(g); err != nil {
		t.Fatalf("moving g into a fragment: %v", err)
	}
	if _, err := c.AppendChild(frag); !errors.Is(err, ErrHierarchy) {
		t.Errorf("fragment holding an ancestor: got %v", err)
	}
	if g.ParentNode() != Node(frag) {
		t.Errorf("failed fragment insertion moved its children")
	}
}

func TestWrongDocumentRejected(t *testing.T) {
	d1, d2 := NewDocument(), NewDocument()
	e := d1.CreateElement("e")
	r := d2.CreateElement("r")
	_, _ = d2.AppendChild(r)
	if _, err := r.AppendChild(e); !errors.Is(err, ErrWrongDocument) {
		t.Errorf("cross document: got %v", err)
	}
	// ImportNode fixes it.
	imp := d2.ImportNode(e, true)
	if _, err := r.AppendChild(imp); err != nil {
		t.Errorf("after import: %v", err)
	}
}

func TestInsertBeforeAndSiblings(t *testing.T) {
	d := NewDocument()
	r := d.CreateElement("r")
	a := d.CreateElement("a")
	c := d.CreateElement("c")
	_, _ = r.AppendChild(a)
	_, _ = r.AppendChild(c)
	b := d.CreateElement("b")
	if _, err := r.InsertBefore(b, c); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, k := range r.ChildNodes() {
		names = append(names, k.NodeName())
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("order: %v", names)
	}
	if b.PreviousSibling() != Node(a) || b.NextSibling() != Node(c) {
		t.Errorf("sibling links wrong")
	}
	if a.PreviousSibling() != nil || c.NextSibling() != nil {
		t.Errorf("end sibling links wrong")
	}
}

func TestRemoveAndReplace(t *testing.T) {
	d := mustParse(t, `<r><a/><b/><c/></r>`)
	r := d.DocumentElement()
	b := r.ChildElements()[1]
	if _, err := r.RemoveChild(b); err != nil {
		t.Fatal(err)
	}
	if len(r.ChildElements()) != 2 || b.ParentNode() != nil {
		t.Errorf("remove failed")
	}
	x := d.CreateElement("x")
	old := r.ChildElements()[0]
	if _, err := r.ReplaceChild(x, old); err != nil {
		t.Fatal(err)
	}
	if r.ChildElements()[0].TagName() != "x" {
		t.Errorf("replace order: %v", ToString(r))
	}
	if _, err := r.RemoveChild(old); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: got %v", err)
	}
}

func TestReparentingMove(t *testing.T) {
	d := mustParse(t, `<r><a><x/></a><b/></r>`)
	r := d.DocumentElement()
	a, b := r.ChildElements()[0], r.ChildElements()[1]
	x := a.ChildElements()[0]
	if _, err := b.AppendChild(x); err != nil {
		t.Fatal(err)
	}
	if len(a.ChildElements()) != 0 || x.ParentNode() != Node(b) {
		t.Errorf("move failed: %s", ToString(r))
	}
}

func TestMoveEarlierSibling(t *testing.T) {
	d := mustParse(t, `<r><a/><b/><c/></r>`)
	r := d.DocumentElement()
	a, c := r.ChildElements()[0], r.ChildElements()[2]
	// Move a to just before c (i.e. after b).
	if _, err := r.InsertBefore(a, c); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, k := range r.ChildNodes() {
		names = append(names, k.NodeName())
	}
	if strings.Join(names, ",") != "b,a,c" {
		t.Errorf("order after move: %v", names)
	}
}

func TestDocumentFragment(t *testing.T) {
	d := mustParse(t, `<r><z/></r>`)
	r := d.DocumentElement()
	f := d.CreateDocumentFragment()
	_, _ = f.AppendChild(d.CreateElement("a"))
	_, _ = f.AppendChild(d.CreateElement("b"))
	if _, err := r.InsertBefore(f, r.FirstChild()); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, k := range r.ChildNodes() {
		names = append(names, k.NodeName())
	}
	if strings.Join(names, ",") != "a,b,z" {
		t.Errorf("fragment insert: %v", names)
	}
	if f.HasChildNodes() {
		t.Errorf("fragment should be empty after insertion")
	}
}

func TestCloneNode(t *testing.T) {
	d := mustParse(t, `<r k="v"><a><b>t</b></a></r>`)
	r := d.DocumentElement()
	shallow := r.CloneNode(false).(*Element)
	if shallow.HasChildNodes() || shallow.GetAttribute("k") != "v" {
		t.Errorf("shallow clone wrong: %s", ToString(shallow))
	}
	deep := r.CloneNode(true).(*Element)
	if ToString(deep) != ToString(r) {
		t.Errorf("deep clone: %s != %s", ToString(deep), ToString(r))
	}
	// Mutating the clone must not affect the original.
	deep.ChildElements()[0].SetAttribute("new", "1")
	if r.ChildElements()[0].HasAttribute("new") {
		t.Errorf("clone aliases original")
	}
}

func TestAttributesNSAndOrder(t *testing.T) {
	d := NewDocument()
	e := d.CreateElement("e")
	e.SetAttribute("b", "2")
	e.SetAttribute("a", "1")
	e.SetAttributeNS("urn:x", "p:c", "3")
	if got := len(e.Attributes()); got != 3 {
		t.Fatalf("attr count: %d", got)
	}
	// Document order is insertion order.
	if e.Attributes()[0].NodeName() != "b" {
		t.Errorf("attr order: %v", e.Attributes()[0].NodeName())
	}
	if e.GetAttributeNS("urn:x", "c") != "3" {
		t.Errorf("ns attr lookup failed")
	}
	e.SetAttribute("b", "22") // replace keeps position
	if e.Attributes()[0].Value() != "22" {
		t.Errorf("attr replace: %v", e.Attributes()[0].Value())
	}
	e.RemoveAttributeNS("urn:x", "c")
	if e.HasAttributeNS("urn:x", "c") {
		t.Errorf("remove ns attr failed")
	}
}

func TestGetElementsByTagName(t *testing.T) {
	d := mustParse(t, `<r><a/><b><a/><c><a/></c></b></r>`)
	if got := len(d.GetElementsByTagName("a")); got != 3 {
		t.Errorf("GetElementsByTagName(a): %d", got)
	}
	if got := len(d.GetElementsByTagName("*")); got != 6 { // includes the root
		t.Errorf("GetElementsByTagName(*): %d", got)
	}
}

func TestGetElementsByTagNameNS(t *testing.T) {
	d := mustParse(t, `<r xmlns:p="urn:x"><p:a/><a/></r>`)
	if got := len(d.GetElementsByTagNameNS("urn:x", "a")); got != 1 {
		t.Errorf("ns lookup: %d", got)
	}
	if got := len(d.GetElementsByTagNameNS("*", "a")); got != 2 {
		t.Errorf("ns wildcard: %d", got)
	}
}

func TestTextContentConcat(t *testing.T) {
	d := mustParse(t, `<r>a<b>b<c>c</c></b>d</r>`)
	if got := d.DocumentElement().TextContent(); got != "abcd" {
		t.Errorf("TextContent: %q", got)
	}
}

func TestPrettyPrint(t *testing.T) {
	d := mustParse(t, `<r><a><b>x</b></a></r>`)
	out := ToStringIndent(d)
	if !strings.Contains(out, "\n  <a>") || !strings.Contains(out, "<b>x</b>") {
		t.Errorf("pretty print:\n%s", out)
	}
	// Pretty output must reparse to the same element structure.
	d2 := mustParse(t, out)
	if DumpElements(d) != DumpElements(d2) {
		t.Errorf("pretty print changed structure")
	}
}

func TestDoctypePreserved(t *testing.T) {
	src := `<!DOCTYPE r [<!ELEMENT r EMPTY>]><r/>`
	d := mustParse(t, src)
	if d.Doctype == nil || d.Doctype.Name != "r" {
		t.Fatalf("doctype missing")
	}
	out := ToString(d)
	if !strings.Contains(out, "<!DOCTYPE r [") {
		t.Errorf("doctype not serialized: %s", out)
	}
}

func TestXMLDeclRecorded(t *testing.T) {
	d := mustParse(t, `<?xml version="1.0" encoding="UTF-8"?><r/>`)
	if d.Version != "1.0" || d.Encoding != "UTF-8" {
		t.Errorf("decl: version=%q encoding=%q", d.Version, d.Encoding)
	}
}

func TestDumpFig4Style(t *testing.T) {
	// Paper Fig. 4: in plain DOM every node is just "Element" — the dump
	// shows the generic interface for each node.
	d := mustParse(t, `<purchaseOrder orderDate="1999-10-20"><shipTo country="US"><name>Alice Smith</name></shipTo></purchaseOrder>`)
	got := Dump(d.DocumentElement())
	for _, want := range []string{"Element purchaseOrder", "Element shipTo", "Element name", `Text "Alice Smith"`} {
		if !strings.Contains(got, want) {
			t.Errorf("dump missing %q:\n%s", want, got)
		}
	}
}

// linkedDocs are parsed trees with every kind of element child: text,
// CDATA, comments, processing instructions, empty and self-closing
// elements, and an element with more children than a list slab takes.
var linkedDocs = []string{
	`<a x="1"><b>hi</b><c/><d></d><![CDATA[<raw>]]><!--note--><?pi data?>tail</a>`,
	"<?xml version=\"1.0\"?>\n<!--before--><r><e/></r><?after?>",
	`<p:a xmlns:p="urn:x" p:k="v"><p:b><p:c/>t<p:c></p:c></p:b><!----><p:b/></p:a>`,
	`<r>` + strings.Repeat(`<i n="1"><j/>x<k/></i>`, 3*maxSlabList) + `</r>`,
	`<r/>`,
}

// checkTreeLinks checks that every child of n, recursively, names n as
// its parent and sits at its index, and that the sibling and first/last
// links agree with ChildNodes. exact also requires every element's child
// list to have no spare capacity, as Parse builds them.
func checkTreeLinks(t *testing.T, n Node, exact bool) {
	t.Helper()
	kids := n.ChildNodes()
	if exact && len(kids) != cap(kids) && n.NodeType() == ElementNode {
		t.Errorf("<%s>: child list of %d has capacity %d", n.NodeName(), len(kids), cap(kids))
	}
	if (n.FirstChild() == nil) != (len(kids) == 0) || n.HasChildNodes() != (len(kids) > 0) {
		t.Errorf("%s: FirstChild/HasChildNodes disagree with %d children", n.NodeName(), len(kids))
	}
	for i, c := range kids {
		if c.ParentNode() != n {
			t.Errorf("%s child %d (%s): parent %v", n.NodeName(), i, c.NodeName(), c.ParentNode())
		}
		if int(c.base().index) != i {
			t.Errorf("%s child %d (%s): index %d", n.NodeName(), i, c.NodeName(), c.base().index)
		}
		var prev, next Node
		if i > 0 {
			prev = kids[i-1]
		}
		if i+1 < len(kids) {
			next = kids[i+1]
		}
		if c.PreviousSibling() != prev || c.NextSibling() != next {
			t.Errorf("%s child %d (%s): siblings %v, %v", n.NodeName(), i, c.NodeName(), c.PreviousSibling(), c.NextSibling())
		}
		checkTreeLinks(t, c, exact)
	}
	if len(kids) > 0 && (n.FirstChild() != kids[0] || n.LastChild() != kids[len(kids)-1]) {
		t.Errorf("%s: first/last child disagree with ChildNodes", n.NodeName())
	}
}

// rebuild copies n under parent in dst, node by node through AppendChild.
func rebuild(t *testing.T, dst *Document, parent, n Node) {
	t.Helper()
	var c Node
	switch x := n.(type) {
	case *Element:
		e := dst.CreateElementNS(x.NamespaceURI(), x.TagName())
		for _, a := range x.Attributes() {
			e.SetAttributeNS(a.Name().Space, a.Name().Qualified(), a.Value())
		}
		c = e
	case *Text:
		c = dst.CreateTextNode(x.Data)
	case *CDATASection:
		c = dst.CreateCDATASection(x.Data)
	case *Comment:
		c = dst.CreateComment(x.Data)
	case *ProcessingInstruction:
		c = dst.CreateProcessingInstruction(x.Target, x.Data)
	default:
		t.Fatalf("unexpected %T", n)
	}
	if _, err := parent.AppendChild(c); err != nil {
		t.Fatal(err)
	}
	for _, k := range n.ChildNodes() {
		rebuild(t, dst, c, k)
	}
}

// TestParsedTreeLinks checks the links of parsed trees, whose child lists
// are built once at each end tag rather than appended to, and that they
// serialize to the bytes of the same tree built with AppendChild.
func TestParsedTreeLinks(t *testing.T) {
	for _, src := range linkedDocs {
		d := mustParse(t, src)
		checkTreeLinks(t, d, true)
		built := NewDocument()
		for _, k := range d.ChildNodes() {
			rebuild(t, built, built, k)
		}
		checkTreeLinks(t, built, false)
		if got, want := ToString(d), ToString(built); got != want {
			t.Errorf("%.40q: parsed tree serializes to\n%s\nbuilt one to\n%s", src, got, want)
		}
		d.Release()
	}
}

// TestParsedListsGrowApart edits parsed trees whose child and attribute
// lists sit side by side in one slab: growing or shrinking one list must
// leave its neighbors as they were.
func TestParsedListsGrowApart(t *testing.T) {
	d := mustParse(t, `<r><a x="1"><x/></a><b y="2" z="3"><y/><z/></b><c/></r>`)
	defer d.Release()
	kids := d.DocumentElement().ChildElements()
	a, b := kids[0], kids[1]
	a.AppendChild(d.CreateElement("added"))
	a.SetAttribute("w", "4")
	if _, err := b.RemoveChild(b.FirstChild()); err != nil {
		t.Fatal(err)
	}
	b.AppendChild(d.CreateElement("again"))
	if _, err := a.InsertBefore(d.CreateTextNode("t"), a.FirstChild()); err != nil {
		t.Fatal(err)
	}
	checkTreeLinks(t, d, false)
	want := `<r><a x="1" w="4">t<x/><added/></a><b y="2" z="3"><z/><again/></b><c/></r>`
	if got := ToString(d.DocumentElement()); got != want {
		t.Errorf("edited tree %s, want %s", got, want)
	}
}
