// Code generated by vdomgen from the unqualified-locals order schema (default namespace undeclared on local elements). DO NOT EDIT.
//
// V-DOM bindings (paper: Kempa & Linnemann, EDBT 2002): one distinct Go
// type per element declaration, type definition and model group of the
// schema. Trees built through this API are schema-valid by construction;
// occurrence counts, required attributes and simple-type facets are
// checked when the tree is written (vdom.AppendXML).
package unqualgen

import (
	"strings"

	"repro/internal/dom"
	"repro/internal/normalize"
	"repro/internal/vdom"
)

// SchemaSource is the XML Schema these bindings were generated from.
const SchemaSource = "<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\"\n    xmlns:u=\"urn:example:unq\" targetNamespace=\"urn:example:unq\">\n\n  <xsd:element name=\"order\" type=\"u:OrderType\"/>\n  <xsd:element name=\"note\" type=\"xsd:string\"/>\n\n  <xsd:complexType name=\"OrderType\">\n    <xsd:sequence>\n      <xsd:element name=\"id\" type=\"xsd:positiveInteger\"/>\n      <xsd:element name=\"line\" minOccurs=\"0\" maxOccurs=\"unbounded\">\n        <xsd:complexType>\n          <xsd:sequence>\n            <xsd:element ref=\"u:note\"/>\n          </xsd:sequence>\n        </xsd:complexType>\n      </xsd:element>\n    </xsd:sequence>\n  </xsd:complexType>\n\n</xsd:schema>\n"

// RT resolves generated names back to their schema components.
var RT = vdom.MustRuntime(SchemaSource, normalize.SchemePaper)

// Document is the typed factory for documents of this schema (the
// paper's purchaseOrderDocument style object).
type Document struct{}

// NewDocument creates a typed document factory.
func NewDocument() *Document { return &Document{} }

// AnyElement wraps a raw DOM element for wildcard (xs:any) positions.
type AnyElement struct{ El *dom.Element }

// NewAnyElement wraps a raw element.
func NewAnyElement(el *dom.Element) *AnyElement { return &AnyElement{El: el} }

// VDOMName implements vdom.Node.
func (a *AnyElement) VDOMName() string { return "anyElement" }

// XMLQName implements vdom.NamedElement.
func (a *AnyElement) XMLQName() (string, string) { return a.El.Name().Space, a.El.LocalName() }

// WriteXML implements vdom.ElementNode.
func (a *AnyElement) WriteXML(w *vdom.Writer) error {
	w.Raw(a.El)
	return nil
}

// DumpInto implements vdom.Dumper.
func (a *AnyElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("anyElement " + a.El.TagName() + "\n")
}

// dumpChild renders any child node in a dump.
func dumpChild(sb *strings.Builder, depth int, n vdom.Node) {
	if d, ok := n.(vdom.Dumper); ok {
		d.DumpInto(sb, depth)
		return
	}
	vdom.Indent(sb, depth)
	sb.WriteString(n.VDOMName() + "\n")
}

// LineTypeType is complex type "LineType" (V-DOM interface LineTypeType).
type LineTypeType struct {
	note *NoteElement
}

// CreateLineTypeType constructs a LineTypeType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateLineTypeType(note *NoteElement) *LineTypeType {
	return &LineTypeType{note: note}
}

// Note returns the required note member.
func (t *LineTypeType) Note() *NoteElement { return t.note }

func (t *LineTypeType) writeContent(w *vdom.Writer) error {
	if t.note == nil {
		return vdom.Required("LineTypeType", "note")
	}
	if err := t.note.WriteXML(w); err != nil {
		return err
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *LineTypeType) VDOMName() string { return "LineTypeType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *LineTypeType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("LineTypeType" + "\n")
	if t.note != nil {
		dumpChild(sb, depth+1, t.note)
	}
}

func (t *LineTypeType) xsiName() string { return "" }

// OrderTypeType is complex type "OrderType" (V-DOM interface OrderTypeType).
type OrderTypeType struct {
	id   *IdElement
	line []*LineElement
}

// CreateOrderTypeType constructs a OrderTypeType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateOrderTypeType(id *IdElement) *OrderTypeType {
	return &OrderTypeType{id: id}
}

// Id returns the required id member.
func (t *OrderTypeType) Id() *IdElement { return t.id }

// AddLine appends a line member (schema occurrence 0..unbounded).
func (t *OrderTypeType) AddLine(v *LineElement) *OrderTypeType {
	t.line = append(t.line, v)
	return t
}

// Line returns the line members added so far.
func (t *OrderTypeType) Line() []*LineElement { return t.line }

func (t *OrderTypeType) writeContent(w *vdom.Writer) error {
	if t.id == nil {
		return vdom.Required("OrderTypeType", "id")
	}
	if err := t.id.WriteXML(w); err != nil {
		return err
	}
	if err := vdom.CheckOccurs("OrderTypeType.line", len(t.line), 0, -1); err != nil {
		return err
	}
	for _, c := range t.line {
		if err := c.WriteXML(w); err != nil {
			return err
		}
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *OrderTypeType) VDOMName() string { return "OrderTypeType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *OrderTypeType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("OrderTypeType" + "\n")
	if t.id != nil {
		dumpChild(sb, depth+1, t.id)
	}
	for _, c := range t.line {
		dumpChild(sb, depth+1, c)
	}
}

func (t *OrderTypeType) xsiName() string { return "OrderType" }

// NoteElement represents element <note> (V-DOM interface noteElement); its content
// is the simple type xsd:string.
type NoteElement struct{ value string }

// CreateNote creates the element (its string content cannot be invalid).
func (d *Document) CreateNote(value string) *NoteElement {
	return &NoteElement{value: value}
}

// Value returns the element's character content.
func (e *NoteElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *NoteElement) XMLQName() (string, string) { return "urn:example:unq", "note" }

// WriteXML implements vdom.ElementNode.
func (e *NoteElement) WriteXML(w *vdom.Writer) error {
	w.Start("urn:example:unq", "note")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *NoteElement) VDOMName() string { return "noteElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *NoteElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("noteElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// OrderElement represents element <order> (V-DOM interface orderElement); its content
// is complex type OrderTypeType.
type OrderElement struct{ content *OrderTypeType }

// CreateOrder wraps a OrderTypeType content value in the element.
func (d *Document) CreateOrder(content *OrderTypeType) *OrderElement {
	return &OrderElement{content: content}
}

// Content returns the element's typed content.
func (e *OrderElement) Content() *OrderTypeType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *OrderElement) XMLQName() (string, string) { return "urn:example:unq", "order" }

// WriteXML implements vdom.ElementNode.
func (e *OrderElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("orderElement", "content")
	}
	w.Start("urn:example:unq", "order")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *OrderElement) VDOMName() string { return "orderElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *OrderElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("orderElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// IdElement represents element <id> (V-DOM interface idElement); its content
// is the simple type xsd:positiveInteger.
type IdElement struct{ value string }

// CreateId validates the value and creates the element.
func (d *Document) CreateId(value string) (*IdElement, error) {
	if err := vdom.CheckBuiltin("positiveInteger", value); err != nil {
		return nil, err
	}
	return &IdElement{value: value}, nil
}

// MustId panics on an invalid value.
func (d *Document) MustId(value string) *IdElement {
	e, err := d.CreateId(value)
	if err != nil {
		panic(err)
	}
	return e
}

// Value returns the element's character content.
func (e *IdElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *IdElement) XMLQName() (string, string) { return "", "id" }

// WriteXML implements vdom.ElementNode.
func (e *IdElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "id")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *IdElement) VDOMName() string { return "idElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *IdElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("idElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// LineElement represents element <line> (V-DOM interface lineElement); its content
// is complex type LineTypeType.
type LineElement struct{ content *LineTypeType }

// CreateLine wraps a LineTypeType content value in the element.
func (d *Document) CreateLine(content *LineTypeType) *LineElement {
	return &LineElement{content: content}
}

// Content returns the element's typed content.
func (e *LineElement) Content() *LineTypeType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *LineElement) XMLQName() (string, string) { return "", "line" }

// WriteXML implements vdom.ElementNode.
func (e *LineElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("lineElement", "content")
	}
	w.Start("", "line")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *LineElement) VDOMName() string { return "lineElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *LineElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("lineElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}
