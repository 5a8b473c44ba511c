package vdom

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/normalize"
	"repro/internal/schemas"
)

func testRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := NewRuntime(schemas.PurchaseOrderXSD, normalize.SchemePaper)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRuntimeResolvesGeneratedNames(t *testing.T) {
	rt := testRuntime(t)
	for _, name := range []string{"PurchaseOrderType", "USAddress", "Items", "SKU", "ItemType", "QuantityType"} {
		if _, ok := rt.Type(name); !ok {
			t.Errorf("runtime cannot resolve %q", name)
		}
	}
	if _, ok := rt.Type("Nonexistent"); ok {
		t.Error("bogus name resolved")
	}
	if rt.SimpleType("SKU") == nil {
		t.Error("SKU should resolve as a simple type")
	}
	if rt.ComplexType("USAddress") == nil {
		t.Error("USAddress should resolve as a complex type")
	}
}

func TestRuntimePanicsOnKindMismatch(t *testing.T) {
	rt := testRuntime(t)
	defer func() {
		if recover() == nil {
			t.Error("SimpleType on a complex name should panic (schema drift)")
		}
	}()
	rt.SimpleType("USAddress")
}

func TestCheckSimpleAndAttr(t *testing.T) {
	rt := testRuntime(t)
	if err := rt.CheckSimple("SKU", "926-AA"); err != nil {
		t.Errorf("SKU ok value: %v", err)
	}
	if rt.CheckSimple("SKU", "nope") == nil {
		t.Error("SKU bad value accepted")
	}
	if err := rt.CheckAttr("PurchaseOrderType", "orderDate", "1999-10-20"); err != nil {
		t.Errorf("orderDate: %v", err)
	}
	if rt.CheckAttr("PurchaseOrderType", "orderDate", "soon") == nil {
		t.Error("bad orderDate accepted")
	}
	if rt.CheckAttr("USAddress", "country", "DE") == nil {
		t.Error("fixed country violation accepted")
	}
	if rt.CheckAttr("PurchaseOrderType", "bogus", "x") == nil {
		t.Error("undeclared attribute accepted")
	}
}

func TestCheckOccurs(t *testing.T) {
	if err := CheckOccurs("t.m", 2, 1, 3); err != nil {
		t.Errorf("in range: %v", err)
	}
	if err := CheckOccurs("t.m", 5, 0, -1); err != nil {
		t.Errorf("unbounded: %v", err)
	}
	err := CheckOccurs("t.m", 0, 1, 3)
	var oe *OccurrenceError
	if !errors.As(err, &oe) || oe.Count != 0 || oe.Min != 1 {
		t.Errorf("below min: %v", err)
	}
	err = CheckOccurs("t.m", 4, 1, 3)
	if !errors.As(err, &oe) || !strings.Contains(err.Error(), "1..3") {
		t.Errorf("above max: %v", err)
	}
}

func TestRequiredError(t *testing.T) {
	err := Required("shipToElement", "content")
	if !strings.Contains(err.Error(), "shipToElement") || !strings.Contains(err.Error(), "content") {
		t.Errorf("required error text: %v", err)
	}
}

// fakeNode is a minimal ElementNode for Marshal tests.
type fakeNode struct {
	name string
	fail bool
}

func (f *fakeNode) VDOMName() string { return f.name }
func (f *fakeNode) WriteXML(w *Writer) error {
	if f.fail {
		return Required(f.name, "something")
	}
	w.Start("", f.name)
	w.End()
	return nil
}

func TestMarshalHelpers(t *testing.T) {
	out, err := MarshalString(&fakeNode{name: "ok"})
	if err != nil || out != "<ok/>" {
		t.Errorf("MarshalString: %q, %v", out, err)
	}
	if _, err := MarshalString(&fakeNode{name: "bad", fail: true}); err == nil {
		t.Error("failing node should propagate")
	}
	pretty, err := MarshalIndent(&fakeNode{name: "ok"})
	if err != nil || !strings.Contains(pretty, "<ok/>") {
		t.Errorf("MarshalIndent: %q, %v", pretty, err)
	}
}

func TestCheckBuiltin(t *testing.T) {
	if err := CheckBuiltin("decimal", "1.5"); err != nil {
		t.Errorf("decimal: %v", err)
	}
	if CheckBuiltin("decimal", "x") == nil {
		t.Error("bad decimal accepted")
	}
	if CheckBuiltin("noSuchType", "x") == nil {
		t.Error("unknown builtin accepted")
	}
}

func TestMixedContentOrdering(t *testing.T) {
	m := &MixedContent{}
	m.AddText("a")
	m.AddNode(&fakeNamed{fakeNode{name: "b"}})
	m.AddText("c")
	if m.Len() != 3 {
		t.Errorf("len: %d", m.Len())
	}
	var sb strings.Builder
	DumpMixed(m, &sb, 0)
	if !strings.Contains(sb.String(), `Text "a"`) || !strings.Contains(sb.String(), "b") {
		t.Errorf("dump: %s", sb.String())
	}
}

type fakeNamed struct{ fakeNode }

func (f *fakeNamed) XMLQName() (string, string) { return "", f.name }

// writeFunc is an ElementNode that writes with an arbitrary function.
type writeFunc func(w *Writer)

func (f writeFunc) VDOMName() string { return "f" }
func (f writeFunc) WriteXML(w *Writer) error {
	f(w)
	return nil
}

func appendString(t *testing.T, f writeFunc) string {
	t.Helper()
	b, err := AppendXML(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestVDOMWriterXSIType(t *testing.T) {
	got := appendString(t, func(w *Writer) {
		w.Start("", "e")
		w.XSIType("USAddress")
		w.Attr("k", `a"b`)
		w.End()
	})
	want := `<e xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="USAddress" k="a&quot;b"/>`
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

// TestVDOMWriterNamespaceScope: the default namespace is declared where it
// changes, undeclared (xmlns="") for an element in no namespace under
// one, and inherited otherwise.
func TestVDOMWriterNamespaceScope(t *testing.T) {
	got := appendString(t, func(w *Writer) {
		w.Start("urn:a", "r")
		w.Start("urn:a", "q")
		w.Start("urn:a", "deep")
		w.End()
		w.End()
		w.Start("", "local")
		w.Start("urn:a", "ref")
		w.Text("")
		w.End()
		w.End()
		w.End()
	})
	want := `<r xmlns="urn:a"><q><deep/></q><local xmlns=""><ref xmlns="urn:a"></ref></local></r>`
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

func TestVDOMWriterRaw(t *testing.T) {
	src, err := dom.ParseString(`<raw k="v">t<x:in xmlns:x="urn:x"/></raw>`)
	if err != nil {
		t.Fatal(err)
	}
	got := appendString(t, func(w *Writer) {
		w.Start("", "parent")
		w.Raw(src.DocumentElement())
		w.Text("<&>")
		w.End()
	})
	want := `<parent><raw k="v">t<x:in xmlns:x="urn:x"/></raw>&lt;&amp;&gt;</parent>`
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
}

// TestVDOMAppendXMLKeepsDstOnError: a violated constraint leaves dst as it was.
func TestVDOMAppendXMLKeepsDstOnError(t *testing.T) {
	dst := []byte("prefix")
	b, err := AppendXML(dst, &fakeNode{name: "bad", fail: true})
	if err == nil || string(b) != "prefix" {
		t.Errorf("got %q, %v", b, err)
	}
	b, err = AppendXML(dst, &fakeNode{name: "ok"})
	if err != nil || string(b) != "prefix<ok/>" {
		t.Errorf("got %q, %v", b, err)
	}
}
