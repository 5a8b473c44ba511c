// Code generated by vdomgen from the WML subset schema (paper §5). DO NOT EDIT.
//
// V-DOM bindings (paper: Kempa & Linnemann, EDBT 2002): one distinct Go
// type per element declaration, type definition and model group of the
// schema. Trees built through this API are schema-valid by construction;
// occurrence counts, required attributes and simple-type facets are
// checked when the tree is written (vdom.AppendXML).
package wmlgen

import (
	"strings"

	"repro/internal/dom"
	"repro/internal/normalize"
	"repro/internal/vdom"
)

// SchemaSource is the XML Schema these bindings were generated from.
const SchemaSource = "<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n\n  <xsd:element name=\"wml\" type=\"Wml\"/>\n\n  <xsd:complexType name=\"Wml\">\n    <xsd:sequence>\n      <xsd:element name=\"card\" type=\"Card\" maxOccurs=\"unbounded\"/>\n    </xsd:sequence>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"Card\">\n    <xsd:sequence>\n      <xsd:element name=\"p\" type=\"P\" minOccurs=\"0\" maxOccurs=\"unbounded\"/>\n    </xsd:sequence>\n    <xsd:attribute name=\"id\" type=\"xsd:NMTOKEN\"/>\n    <xsd:attribute name=\"title\" type=\"xsd:string\"/>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"P\" mixed=\"true\">\n    <xsd:choice minOccurs=\"0\" maxOccurs=\"unbounded\">\n      <xsd:element name=\"b\" type=\"xsd:string\"/>\n      <xsd:element name=\"br\" type=\"Br\"/>\n      <xsd:element name=\"select\" type=\"Select\"/>\n      <xsd:element name=\"a\" type=\"A\"/>\n    </xsd:choice>\n    <xsd:attribute name=\"align\" type=\"Alignment\"/>\n  </xsd:complexType>\n\n  <xsd:simpleType name=\"Alignment\">\n    <xsd:restriction base=\"xsd:string\">\n      <xsd:enumeration value=\"left\"/>\n      <xsd:enumeration value=\"center\"/>\n      <xsd:enumeration value=\"right\"/>\n    </xsd:restriction>\n  </xsd:simpleType>\n\n  <xsd:complexType name=\"Br\"/>\n\n  <xsd:complexType name=\"A\">\n    <xsd:simpleContent>\n      <xsd:extension base=\"xsd:string\">\n        <xsd:attribute name=\"href\" type=\"xsd:anyURI\" use=\"required\"/>\n        <xsd:attribute name=\"title\" type=\"xsd:string\"/>\n      </xsd:extension>\n    </xsd:simpleContent>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"Select\">\n    <xsd:sequence>\n      <xsd:element name=\"option\" type=\"Option\" maxOccurs=\"unbounded\"/>\n    </xsd:sequence>\n    <xsd:attribute name=\"name\" type=\"xsd:NMTOKEN\"/>\n    <xsd:attribute name=\"title\" type=\"xsd:string\"/>\n    <xsd:attribute name=\"multiple\" type=\"xsd:boolean\"/>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"Option\">\n    <xsd:simpleContent>\n      <xsd:extension base=\"xsd:string\">\n        <xsd:attribute name=\"value\" type=\"xsd:string\"/>\n        <xsd:attribute name=\"title\" type=\"xsd:string\"/>\n        <xsd:attribute name=\"onpick\" type=\"xsd:anyURI\"/>\n      </xsd:extension>\n    </xsd:simpleContent>\n  </xsd:complexType>\n\n</xsd:schema>\n"

// RT resolves generated names back to their schema components.
var RT = vdom.MustRuntime(SchemaSource, normalize.SchemePaper)

// Document is the typed factory for documents of this schema (the
// paper's purchaseOrderDocument style object).
type Document struct{}

// NewDocument creates a typed document factory.
func NewDocument() *Document { return &Document{} }

// Alignment is the simple type "Alignment" (V-DOM interface AlignmentType).
type Alignment string

// NewAlignment validates a lexical value against the facets of "Alignment".
func NewAlignment(lexical string) (Alignment, error) {
	if err := RT.CheckSimple("Alignment", lexical); err != nil {
		return "", err
	}
	return Alignment(lexical), nil
}

// MustAlignment is NewAlignment for values known to be valid; it panics on error.
func MustAlignment(lexical string) Alignment {
	v, err := NewAlignment(lexical)
	if err != nil {
		panic(err)
	}
	return v
}

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

// PCGroup is the sealed choice group {b | br | select | a} of type PType (paper Fig. 6:
// a super-interface per choice, alternatives implement it).
type PCGroup interface {
	vdom.ElementNode
	isPCGroup()
}

func (*AElement) isPCGroup()      {}
func (*BElement) isPCGroup()      {}
func (*BrElement) isPCGroup()     {}
func (*SelectElement) isPCGroup() {}

// dumpChild renders any child node in a dump.
func dumpChild(sb *strings.Builder, depth int, n vdom.Node) {
	if d, ok := n.(vdom.Dumper); ok {
		d.DumpInto(sb, depth)
		return
	}
	vdom.Indent(sb, depth)
	sb.WriteString(n.VDOMName() + "\n")
}

// AType is complex type "A": simple content with attributes.
type AType struct {
	value     string
	attrHref  *string
	attrTitle *string
}

// CreateAType constructs the type, validating the character content.
func (d *Document) CreateAType(lexical string) (*AType, error) {
	if err := RT.CheckSimpleContent("A", lexical); err != nil {
		return nil, err
	}
	return &AType{value: lexical}, nil
}

// Value returns the character content.
func (t *AType) Value() string { return t.value }

// SetHref validates and sets the "href" attribute (type anyURI).
func (t *AType) SetHref(lexical string) error {
	if err := RT.CheckAttr("A", "href", lexical); err != nil {
		return err
	}
	t.attrHref = &lexical
	return nil
}

// Href returns the "href" attribute and whether it is set.
func (t *AType) Href() (string, bool) {
	if t.attrHref == nil {
		return "", false
	}
	return *t.attrHref, true
}

// SetTitle validates and sets the "title" attribute (type string).
func (t *AType) SetTitle(lexical string) error {
	if err := RT.CheckAttr("A", "title", lexical); err != nil {
		return err
	}
	t.attrTitle = &lexical
	return nil
}

// Title returns the "title" attribute and whether it is set.
func (t *AType) Title() (string, bool) {
	if t.attrTitle == nil {
		return "", false
	}
	return *t.attrTitle, true
}

func (t *AType) writeContent(w *vdom.Writer) error {
	if t.attrHref != nil {
		w.Attr("href", *t.attrHref)
	} else {
		return vdom.Required("AType", "attribute href")
	}
	if t.attrTitle != nil {
		w.Attr("title", *t.attrTitle)
	}
	w.Text(t.value)
	return nil
}

// VDOMName implements vdom.Node.
func (t *AType) VDOMName() string { return "AType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *AType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("AType" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + t.value + "\n")
}

func (t *AType) xsiName() string { return "A" }

// BrType is complex type "Br" (V-DOM interface BrType).
type BrType struct {
}

// CreateBrType constructs a BrType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateBrType() *BrType {
	return &BrType{}
}

func (t *BrType) writeContent(w *vdom.Writer) error {
	return nil
}

// VDOMName implements vdom.Node.
func (t *BrType) VDOMName() string { return "BrType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *BrType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("BrType" + "\n")
}

func (t *BrType) xsiName() string { return "Br" }

// CardType is complex type "Card" (V-DOM interface CardType).
type CardType struct {
	p         []*PElement
	attrId    *string
	attrTitle *string
}

// CreateCardType constructs a CardType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateCardType() *CardType {
	return &CardType{}
}

// AddP appends a p member (schema occurrence 0..unbounded).
func (t *CardType) AddP(v *PElement) *CardType {
	t.p = append(t.p, v)
	return t
}

// P returns the p members added so far.
func (t *CardType) P() []*PElement { return t.p }

// SetId validates and sets the "id" attribute (type NMTOKEN).
func (t *CardType) SetId(lexical string) error {
	if err := RT.CheckAttr("Card", "id", lexical); err != nil {
		return err
	}
	t.attrId = &lexical
	return nil
}

// Id returns the "id" attribute and whether it is set.
func (t *CardType) Id() (string, bool) {
	if t.attrId == nil {
		return "", false
	}
	return *t.attrId, true
}

// SetTitle validates and sets the "title" attribute (type string).
func (t *CardType) SetTitle(lexical string) error {
	if err := RT.CheckAttr("Card", "title", lexical); err != nil {
		return err
	}
	t.attrTitle = &lexical
	return nil
}

// Title returns the "title" attribute and whether it is set.
func (t *CardType) Title() (string, bool) {
	if t.attrTitle == nil {
		return "", false
	}
	return *t.attrTitle, true
}

func (t *CardType) writeContent(w *vdom.Writer) error {
	if t.attrId != nil {
		w.Attr("id", *t.attrId)
	}
	if t.attrTitle != nil {
		w.Attr("title", *t.attrTitle)
	}
	if err := vdom.CheckOccurs("CardType.p", len(t.p), 0, -1); err != nil {
		return err
	}
	for _, c := range t.p {
		if err := c.WriteXML(w); err != nil {
			return err
		}
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *CardType) VDOMName() string { return "CardType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *CardType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("CardType" + "\n")
	for _, c := range t.p {
		dumpChild(sb, depth+1, c)
	}
}

func (t *CardType) xsiName() string { return "Card" }

// OptionType is complex type "Option": simple content with attributes.
type OptionType struct {
	value      string
	attrValue2 *string
	attrTitle  *string
	attrOnpick *string
}

// CreateOptionType constructs the type, validating the character content.
func (d *Document) CreateOptionType(lexical string) (*OptionType, error) {
	if err := RT.CheckSimpleContent("Option", lexical); err != nil {
		return nil, err
	}
	return &OptionType{value: lexical}, nil
}

// Value returns the character content.
func (t *OptionType) Value() string { return t.value }

// SetValue2 validates and sets the "value" attribute (type string).
func (t *OptionType) SetValue2(lexical string) error {
	if err := RT.CheckAttr("Option", "value", lexical); err != nil {
		return err
	}
	t.attrValue2 = &lexical
	return nil
}

// Value2 returns the "value" attribute and whether it is set.
func (t *OptionType) Value2() (string, bool) {
	if t.attrValue2 == nil {
		return "", false
	}
	return *t.attrValue2, true
}

// SetTitle validates and sets the "title" attribute (type string).
func (t *OptionType) SetTitle(lexical string) error {
	if err := RT.CheckAttr("Option", "title", lexical); err != nil {
		return err
	}
	t.attrTitle = &lexical
	return nil
}

// Title returns the "title" attribute and whether it is set.
func (t *OptionType) Title() (string, bool) {
	if t.attrTitle == nil {
		return "", false
	}
	return *t.attrTitle, true
}

// SetOnpick validates and sets the "onpick" attribute (type anyURI).
func (t *OptionType) SetOnpick(lexical string) error {
	if err := RT.CheckAttr("Option", "onpick", lexical); err != nil {
		return err
	}
	t.attrOnpick = &lexical
	return nil
}

// Onpick returns the "onpick" attribute and whether it is set.
func (t *OptionType) Onpick() (string, bool) {
	if t.attrOnpick == nil {
		return "", false
	}
	return *t.attrOnpick, true
}

func (t *OptionType) writeContent(w *vdom.Writer) error {
	if t.attrValue2 != nil {
		w.Attr("value", *t.attrValue2)
	}
	if t.attrTitle != nil {
		w.Attr("title", *t.attrTitle)
	}
	if t.attrOnpick != nil {
		w.Attr("onpick", *t.attrOnpick)
	}
	w.Text(t.value)
	return nil
}

// VDOMName implements vdom.Node.
func (t *OptionType) VDOMName() string { return "OptionType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *OptionType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("OptionType" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + t.value + "\n")
}

func (t *OptionType) xsiName() string { return "Option" }

// PType is complex type "P" (mixed content: character data may
// interleave with child elements; order and occurrence are checked
// against the content model when the tree is written).
type PType struct {
	vdom.MixedContent
	attrAlign *string
}

// PTypeMember is the sealed set of element types admitted inside PType.
type PTypeMember interface {
	vdom.NamedElement
	isPTypeMember()
}

func (*AElement) isPTypeMember()      {}
func (*BElement) isPTypeMember()      {}
func (*BrElement) isPTypeMember()     {}
func (*SelectElement) isPTypeMember() {}

// CreatePType constructs an empty mixed-content value.
func (d *Document) CreatePType() *PType { return &PType{} }

// Add appends a typed child element.
func (t *PType) Add(child PTypeMember) *PType {
	t.AddNode(child)
	return t
}

// Text appends character data and returns the value for chaining.
func (t *PType) Text(s string) *PType {
	t.AddText(s)
	return t
}

// SetAlign validates and sets the "align" attribute (type Alignment).
func (t *PType) SetAlign(lexical string) error {
	if err := RT.CheckAttr("P", "align", lexical); err != nil {
		return err
	}
	t.attrAlign = &lexical
	return nil
}

// Align returns the "align" attribute and whether it is set.
func (t *PType) Align() (string, bool) {
	if t.attrAlign == nil {
		return "", false
	}
	return *t.attrAlign, true
}

func (t *PType) writeContent(w *vdom.Writer) error {
	if t.attrAlign != nil {
		w.Attr("align", *t.attrAlign)
	}
	return RT.WriteMixed(w, &t.MixedContent, "P")
}

// VDOMName implements vdom.Node.
func (t *PType) VDOMName() string { return "PType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *PType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("PType" + "\n")
	vdom.DumpMixed(&t.MixedContent, sb, depth+1)
}

func (t *PType) xsiName() string { return "P" }

// SelectType is complex type "Select" (V-DOM interface SelectType).
type SelectType struct {
	option       []*OptionElement
	attrName     *string
	attrTitle    *string
	attrMultiple *string
}

// CreateSelectType constructs a SelectType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateSelectType() *SelectType {
	return &SelectType{}
}

// AddOption appends a option member (schema occurrence 1..unbounded).
func (t *SelectType) AddOption(v *OptionElement) *SelectType {
	t.option = append(t.option, v)
	return t
}

// Option returns the option members added so far.
func (t *SelectType) Option() []*OptionElement { return t.option }

// SetName validates and sets the "name" attribute (type NMTOKEN).
func (t *SelectType) SetName(lexical string) error {
	if err := RT.CheckAttr("Select", "name", lexical); err != nil {
		return err
	}
	t.attrName = &lexical
	return nil
}

// Name returns the "name" attribute and whether it is set.
func (t *SelectType) Name() (string, bool) {
	if t.attrName == nil {
		return "", false
	}
	return *t.attrName, true
}

// SetTitle validates and sets the "title" attribute (type string).
func (t *SelectType) SetTitle(lexical string) error {
	if err := RT.CheckAttr("Select", "title", lexical); err != nil {
		return err
	}
	t.attrTitle = &lexical
	return nil
}

// Title returns the "title" attribute and whether it is set.
func (t *SelectType) Title() (string, bool) {
	if t.attrTitle == nil {
		return "", false
	}
	return *t.attrTitle, true
}

// SetMultiple validates and sets the "multiple" attribute (type boolean).
func (t *SelectType) SetMultiple(lexical string) error {
	if err := RT.CheckAttr("Select", "multiple", lexical); err != nil {
		return err
	}
	t.attrMultiple = &lexical
	return nil
}

// Multiple returns the "multiple" attribute and whether it is set.
func (t *SelectType) Multiple() (string, bool) {
	if t.attrMultiple == nil {
		return "", false
	}
	return *t.attrMultiple, true
}

func (t *SelectType) writeContent(w *vdom.Writer) error {
	if t.attrName != nil {
		w.Attr("name", *t.attrName)
	}
	if t.attrTitle != nil {
		w.Attr("title", *t.attrTitle)
	}
	if t.attrMultiple != nil {
		w.Attr("multiple", *t.attrMultiple)
	}
	if err := vdom.CheckOccurs("SelectType.option", len(t.option), 1, -1); err != nil {
		return err
	}
	for _, c := range t.option {
		if err := c.WriteXML(w); err != nil {
			return err
		}
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *SelectType) VDOMName() string { return "SelectType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *SelectType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("SelectType" + "\n")
	for _, c := range t.option {
		dumpChild(sb, depth+1, c)
	}
}

func (t *SelectType) xsiName() string { return "Select" }

// WmlType is complex type "Wml" (V-DOM interface WmlType).
type WmlType struct {
	card []*CardElement
}

// CreateWmlType constructs a WmlType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateWmlType() *WmlType {
	return &WmlType{}
}

// AddCard appends a card member (schema occurrence 1..unbounded).
func (t *WmlType) AddCard(v *CardElement) *WmlType {
	t.card = append(t.card, v)
	return t
}

// Card returns the card members added so far.
func (t *WmlType) Card() []*CardElement { return t.card }

func (t *WmlType) writeContent(w *vdom.Writer) error {
	if err := vdom.CheckOccurs("WmlType.card", len(t.card), 1, -1); err != nil {
		return err
	}
	for _, c := range t.card {
		if err := c.WriteXML(w); err != nil {
			return err
		}
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *WmlType) VDOMName() string { return "WmlType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *WmlType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("WmlType" + "\n")
	for _, c := range t.card {
		dumpChild(sb, depth+1, c)
	}
}

func (t *WmlType) xsiName() string { return "Wml" }

// WmlElement represents element <wml> (V-DOM interface wmlElement); its content
// is complex type WmlType.
type WmlElement struct{ content *WmlType }

// CreateWml wraps a WmlType content value in the element.
func (d *Document) CreateWml(content *WmlType) *WmlElement {
	return &WmlElement{content: content}
}

// Content returns the element's typed content.
func (e *WmlElement) Content() *WmlType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *WmlElement) XMLQName() (string, string) { return "", "wml" }

// WriteXML implements vdom.ElementNode.
func (e *WmlElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("wmlElement", "content")
	}
	w.Start("", "wml")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *WmlElement) VDOMName() string { return "wmlElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *WmlElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("wmlElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// PElement represents element <p> (V-DOM interface pElement); its content
// is complex type PType.
type PElement struct{ content *PType }

// CreateP wraps a PType content value in the element.
func (d *Document) CreateP(content *PType) *PElement {
	return &PElement{content: content}
}

// Content returns the element's typed content.
func (e *PElement) Content() *PType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *PElement) XMLQName() (string, string) { return "", "p" }

// WriteXML implements vdom.ElementNode.
func (e *PElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("pElement", "content")
	}
	w.Start("", "p")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *PElement) VDOMName() string { return "pElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *PElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("pElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// BElement represents element <b> (V-DOM interface bElement); its content
// is the simple type xsd:string.
type BElement struct{ value string }

// CreateB creates the element (its string content cannot be invalid).
func (d *Document) CreateB(value string) *BElement {
	return &BElement{value: value}
}

// Value returns the element's character content.
func (e *BElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *BElement) XMLQName() (string, string) { return "", "b" }

// WriteXML implements vdom.ElementNode.
func (e *BElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "b")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *BElement) VDOMName() string { return "bElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *BElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("bElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// BrElement represents element <br> (V-DOM interface brElement); its content
// is complex type BrType.
type BrElement struct{ content *BrType }

// CreateBr wraps a BrType content value in the element.
func (d *Document) CreateBr(content *BrType) *BrElement {
	return &BrElement{content: content}
}

// Content returns the element's typed content.
func (e *BrElement) Content() *BrType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *BrElement) XMLQName() (string, string) { return "", "br" }

// WriteXML implements vdom.ElementNode.
func (e *BrElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("brElement", "content")
	}
	w.Start("", "br")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *BrElement) VDOMName() string { return "brElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *BrElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("brElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// SelectElement represents element <select> (V-DOM interface selectElement); its content
// is complex type SelectType.
type SelectElement struct{ content *SelectType }

// CreateSelect wraps a SelectType content value in the element.
func (d *Document) CreateSelect(content *SelectType) *SelectElement {
	return &SelectElement{content: content}
}

// Content returns the element's typed content.
func (e *SelectElement) Content() *SelectType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *SelectElement) XMLQName() (string, string) { return "", "select" }

// WriteXML implements vdom.ElementNode.
func (e *SelectElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("selectElement", "content")
	}
	w.Start("", "select")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *SelectElement) VDOMName() string { return "selectElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *SelectElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("selectElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// AElement represents element <a> (V-DOM interface aElement); its content
// is complex type AType.
type AElement struct{ content *AType }

// CreateA wraps a AType content value in the element.
func (d *Document) CreateA(content *AType) *AElement {
	return &AElement{content: content}
}

// Content returns the element's typed content.
func (e *AElement) Content() *AType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *AElement) XMLQName() (string, string) { return "", "a" }

// WriteXML implements vdom.ElementNode.
func (e *AElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("aElement", "content")
	}
	w.Start("", "a")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *AElement) VDOMName() string { return "aElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *AElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("aElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// OptionElement represents element <option> (V-DOM interface optionElement); its content
// is complex type OptionType.
type OptionElement struct{ content *OptionType }

// CreateOption wraps a OptionType content value in the element.
func (d *Document) CreateOption(content *OptionType) *OptionElement {
	return &OptionElement{content: content}
}

// Content returns the element's typed content.
func (e *OptionElement) Content() *OptionType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *OptionElement) XMLQName() (string, string) { return "", "option" }

// WriteXML implements vdom.ElementNode.
func (e *OptionElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("optionElement", "content")
	}
	w.Start("", "option")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *OptionElement) VDOMName() string { return "optionElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *OptionElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("optionElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// CardElement represents element <card> (V-DOM interface cardElement); its content
// is complex type CardType.
type CardElement struct{ content *CardType }

// CreateCard wraps a CardType content value in the element.
func (d *Document) CreateCard(content *CardType) *CardElement {
	return &CardElement{content: content}
}

// Content returns the element's typed content.
func (e *CardElement) Content() *CardType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *CardElement) XMLQName() (string, string) { return "", "card" }

// WriteXML implements vdom.ElementNode.
func (e *CardElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("cardElement", "content")
	}
	w.Start("", "card")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *CardElement) VDOMName() string { return "cardElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *CardElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("cardElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}
