// Code generated by vdomgen from the wildcard envelope schema (lax any/anyAttribute coverage). DO NOT EDIT.
//
// V-DOM bindings (paper: Kempa & Linnemann, EDBT 2002): one distinct Go
// type per element declaration, type definition and model group of the
// schema. Trees built through this API are schema-valid by construction;
// occurrence counts, required attributes and simple-type facets are
// checked when the tree is written (vdom.AppendXML).
package wildgen

import (
	"strings"

	"repro/internal/dom"
	"repro/internal/normalize"
	"repro/internal/vdom"
)

// SchemaSource is the XML Schema these bindings were generated from.
const SchemaSource = "<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n\n  <xsd:element name=\"envelope\" type=\"Envelope\"/>\n  <xsd:element name=\"extra\" type=\"xsd:string\"/>\n  <xsd:element name=\"record\" type=\"Record\"/>\n  <xsd:element name=\"payload\" type=\"xsd:anyType\"/>\n\n  <xsd:complexType name=\"Envelope\">\n    <xsd:sequence>\n      <xsd:any minOccurs=\"0\" maxOccurs=\"unbounded\" processContents=\"lax\"/>\n    </xsd:sequence>\n    <xsd:attribute name=\"version\" type=\"xsd:positiveInteger\"/>\n    <xsd:anyAttribute/>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"Record\">\n    <xsd:sequence>\n      <xsd:element name=\"key\" type=\"xsd:string\"/>\n      <xsd:element name=\"value\" type=\"xsd:string\"/>\n    </xsd:sequence>\n  </xsd:complexType>\n\n</xsd:schema>\n"

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

// EnvelopeType is complex type "Envelope" (V-DOM interface EnvelopeType).
type EnvelopeType struct {
	any         []*AnyElement
	attrVersion *string
}

// CreateEnvelopeType constructs a EnvelopeType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateEnvelopeType() *EnvelopeType {
	return &EnvelopeType{}
}

// AddAny appends a any member (schema occurrence 0..unbounded).
func (t *EnvelopeType) AddAny(v *AnyElement) *EnvelopeType {
	t.any = append(t.any, v)
	return t
}

// Any returns the any members added so far.
func (t *EnvelopeType) Any() []*AnyElement { return t.any }

// SetVersion validates and sets the "version" attribute (type positiveInteger).
func (t *EnvelopeType) SetVersion(lexical string) error {
	if err := RT.CheckAttr("Envelope", "version", lexical); err != nil {
		return err
	}
	t.attrVersion = &lexical
	return nil
}

// Version returns the "version" attribute and whether it is set.
func (t *EnvelopeType) Version() (string, bool) {
	if t.attrVersion == nil {
		return "", false
	}
	return *t.attrVersion, true
}

func (t *EnvelopeType) writeContent(w *vdom.Writer) error {
	if t.attrVersion != nil {
		w.Attr("version", *t.attrVersion)
	}
	if err := vdom.CheckOccurs("EnvelopeType.any", len(t.any), 0, -1); err != nil {
		return err
	}
	for _, c := range t.any {
		if err := c.WriteXML(w); err != nil {
			return err
		}
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *EnvelopeType) VDOMName() string { return "EnvelopeType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *EnvelopeType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("EnvelopeType" + "\n")
	for _, c := range t.any {
		dumpChild(sb, depth+1, c)
	}
}

func (t *EnvelopeType) xsiName() string { return "Envelope" }

// RecordType is complex type "Record" (V-DOM interface RecordType).
type RecordType struct {
	key   *KeyElement
	value *ValueElement
}

// CreateRecordType constructs a RecordType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateRecordType(key *KeyElement, value *ValueElement) *RecordType {
	return &RecordType{key: key, value: value}
}

// Key returns the required key member.
func (t *RecordType) Key() *KeyElement { return t.key }

// Value returns the required value member.
func (t *RecordType) Value() *ValueElement { return t.value }

func (t *RecordType) writeContent(w *vdom.Writer) error {
	if t.key == nil {
		return vdom.Required("RecordType", "key")
	}
	if err := t.key.WriteXML(w); err != nil {
		return err
	}
	if t.value == nil {
		return vdom.Required("RecordType", "value")
	}
	if err := t.value.WriteXML(w); err != nil {
		return err
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *RecordType) VDOMName() string { return "RecordType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *RecordType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("RecordType" + "\n")
	if t.key != nil {
		dumpChild(sb, depth+1, t.key)
	}
	if t.value != nil {
		dumpChild(sb, depth+1, t.value)
	}
}

func (t *RecordType) xsiName() string { return "Record" }

// EnvelopeElement represents element <envelope> (V-DOM interface envelopeElement); its content
// is complex type EnvelopeType.
type EnvelopeElement struct{ content *EnvelopeType }

// CreateEnvelope wraps a EnvelopeType content value in the element.
func (d *Document) CreateEnvelope(content *EnvelopeType) *EnvelopeElement {
	return &EnvelopeElement{content: content}
}

// Content returns the element's typed content.
func (e *EnvelopeElement) Content() *EnvelopeType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *EnvelopeElement) XMLQName() (string, string) { return "", "envelope" }

// WriteXML implements vdom.ElementNode.
func (e *EnvelopeElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("envelopeElement", "content")
	}
	w.Start("", "envelope")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *EnvelopeElement) VDOMName() string { return "envelopeElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *EnvelopeElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("envelopeElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// ExtraElement represents element <extra> (V-DOM interface extraElement); its content
// is the simple type xsd:string.
type ExtraElement struct{ value string }

// CreateExtra creates the element (its string content cannot be invalid).
func (d *Document) CreateExtra(value string) *ExtraElement {
	return &ExtraElement{value: value}
}

// Value returns the element's character content.
func (e *ExtraElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *ExtraElement) XMLQName() (string, string) { return "", "extra" }

// WriteXML implements vdom.ElementNode.
func (e *ExtraElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "extra")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *ExtraElement) VDOMName() string { return "extraElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *ExtraElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("extraElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// PayloadElement represents element <payload>, whose type is xs:anyType: its
// content is unconstrained raw DOM.
type PayloadElement struct {
	children []*AnyElement
	text     []string
}

// CreatePayload creates an empty element.
func (d *Document) CreatePayload() *PayloadElement { return &PayloadElement{} }

// AddRaw appends a raw child element.
func (e *PayloadElement) AddRaw(el *dom.Element) *PayloadElement {
	e.children = append(e.children, NewAnyElement(el))
	return e
}

// AddText appends character data.
func (e *PayloadElement) AddText(s string) *PayloadElement {
	e.text = append(e.text, s)
	return e
}

// XMLQName implements vdom.NamedElement.
func (e *PayloadElement) XMLQName() (string, string) { return "", "payload" }

// WriteXML implements vdom.ElementNode.
func (e *PayloadElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "payload")
	for _, c := range e.children {
		w.Raw(c.El)
	}
	for _, s := range e.text {
		w.Text(s)
	}
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *PayloadElement) VDOMName() string { return "payloadElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *PayloadElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("payloadElement" + "\n")
}

// RecordElement represents element <record> (V-DOM interface recordElement); its content
// is complex type RecordType.
type RecordElement struct{ content *RecordType }

// CreateRecord wraps a RecordType content value in the element.
func (d *Document) CreateRecord(content *RecordType) *RecordElement {
	return &RecordElement{content: content}
}

// Content returns the element's typed content.
func (e *RecordElement) Content() *RecordType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *RecordElement) XMLQName() (string, string) { return "", "record" }

// WriteXML implements vdom.ElementNode.
func (e *RecordElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("recordElement", "content")
	}
	w.Start("", "record")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *RecordElement) VDOMName() string { return "recordElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *RecordElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("recordElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// KeyElement represents element <key> (V-DOM interface keyElement); its content
// is the simple type xsd:string.
type KeyElement struct{ value string }

// CreateKey creates the element (its string content cannot be invalid).
func (d *Document) CreateKey(value string) *KeyElement {
	return &KeyElement{value: value}
}

// Value returns the element's character content.
func (e *KeyElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *KeyElement) XMLQName() (string, string) { return "", "key" }

// WriteXML implements vdom.ElementNode.
func (e *KeyElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "key")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *KeyElement) VDOMName() string { return "keyElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *KeyElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("keyElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// ValueElement represents element <value> (V-DOM interface valueElement); its content
// is the simple type xsd:string.
type ValueElement struct{ value string }

// CreateValue creates the element (its string content cannot be invalid).
func (d *Document) CreateValue(value string) *ValueElement {
	return &ValueElement{value: value}
}

// Value returns the element's character content.
func (e *ValueElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *ValueElement) XMLQName() (string, string) { return "", "value" }

// WriteXML implements vdom.ElementNode.
func (e *ValueElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "value")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *ValueElement) VDOMName() string { return "valueElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *ValueElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("valueElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}
