// Code generated by vdomgen from the address derivation schema (paper §3 extension/substitution examples). DO NOT EDIT.
//
// V-DOM bindings (paper: Kempa & Linnemann, EDBT 2002): one distinct Go
// type per element declaration, type definition and model group of the
// schema. Trees built through this API are schema-valid by construction;
// occurrence counts, required attributes and simple-type facets are
// checked when the tree is written (vdom.AppendXML).
package derivgen

import (
	"strings"

	"repro/internal/dom"
	"repro/internal/normalize"
	"repro/internal/vdom"
)

// SchemaSource is the XML Schema these bindings were generated from.
const SchemaSource = "<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n\n  <xsd:complexType name=\"Address\">\n    <xsd:sequence>\n      <xsd:element name=\"name\" type=\"xsd:string\"/>\n      <xsd:element name=\"street\" type=\"xsd:string\"/>\n      <xsd:element name=\"city\" type=\"xsd:string\"/>\n    </xsd:sequence>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"USAddress\">\n    <xsd:complexContent>\n      <xsd:extension base=\"Address\">\n        <xsd:sequence>\n          <xsd:element name=\"state\" type=\"xsd:string\"/>\n          <xsd:element name=\"zip\" type=\"xsd:string\"/>\n        </xsd:sequence>\n      </xsd:extension>\n    </xsd:complexContent>\n  </xsd:complexType>\n\n  <xsd:element name=\"address\" type=\"Address\"/>\n\n  <xsd:element name=\"comment\" type=\"xsd:string\"/>\n  <xsd:element name=\"shipComment\" type=\"xsd:string\" substitutionGroup=\"comment\"/>\n  <xsd:element name=\"customerComment\" type=\"xsd:string\" substitutionGroup=\"comment\"/>\n\n  <xsd:element name=\"note\" abstract=\"true\" type=\"xsd:string\"/>\n  <xsd:element name=\"shipNote\" type=\"xsd:string\" substitutionGroup=\"note\"/>\n\n  <xsd:complexType name=\"CommentBlock\">\n    <xsd:sequence>\n      <xsd:element ref=\"comment\" minOccurs=\"0\" maxOccurs=\"unbounded\"/>\n    </xsd:sequence>\n  </xsd:complexType>\n  <xsd:element name=\"commentBlock\" type=\"CommentBlock\"/>\n\n  <xsd:complexType name=\"NoteBlock\">\n    <xsd:sequence>\n      <xsd:element ref=\"note\" minOccurs=\"0\" maxOccurs=\"unbounded\"/>\n    </xsd:sequence>\n  </xsd:complexType>\n  <xsd:element name=\"noteBlock\" type=\"NoteBlock\"/>\n\n</xsd:schema>\n"

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

// AddressTypeIface is satisfied by AddressType and every type derived from it
// (paper: type extension and restriction map to inheritance).
type AddressTypeIface interface {
	vdom.Node
	isAddressType()
	writeContent(w *vdom.Writer) error
	xsiName() string
}

// AddressType is complex type "Address" (V-DOM interface AddressType).
type AddressType struct {
	name   *NameElement
	street *StreetElement
	city   *CityElement
}

// CreateAddressType constructs a AddressType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateAddressType(name *NameElement, street *StreetElement, city *CityElement) *AddressType {
	return &AddressType{name: name, street: street, city: city}
}

// Name returns the required name member.
func (t *AddressType) Name() *NameElement { return t.name }

// Street returns the required street member.
func (t *AddressType) Street() *StreetElement { return t.street }

// City returns the required city member.
func (t *AddressType) City() *CityElement { return t.city }

func (t *AddressType) writeContent(w *vdom.Writer) error {
	if t.name == nil {
		return vdom.Required("AddressType", "name")
	}
	if err := t.name.WriteXML(w); err != nil {
		return err
	}
	if t.street == nil {
		return vdom.Required("AddressType", "street")
	}
	if err := t.street.WriteXML(w); err != nil {
		return err
	}
	if t.city == nil {
		return vdom.Required("AddressType", "city")
	}
	if err := t.city.WriteXML(w); err != nil {
		return err
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *AddressType) VDOMName() string { return "AddressType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *AddressType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("AddressType" + "\n")
	if t.name != nil {
		dumpChild(sb, depth+1, t.name)
	}
	if t.street != nil {
		dumpChild(sb, depth+1, t.street)
	}
	if t.city != nil {
		dumpChild(sb, depth+1, t.city)
	}
}

func (t *AddressType) xsiName() string { return "Address" }

func (t *AddressType) isAddressType() {}

// CommentBlockType is complex type "CommentBlock" (V-DOM interface CommentBlockType).
type CommentBlockType struct {
	comment []CommentSubst
}

// CreateCommentBlockType constructs a CommentBlockType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateCommentBlockType() *CommentBlockType {
	return &CommentBlockType{}
}

// AddComment appends a comment member (schema occurrence 0..unbounded).
func (t *CommentBlockType) AddComment(v CommentSubst) *CommentBlockType {
	t.comment = append(t.comment, v)
	return t
}

// Comment returns the comment members added so far.
func (t *CommentBlockType) Comment() []CommentSubst { return t.comment }

func (t *CommentBlockType) writeContent(w *vdom.Writer) error {
	if err := vdom.CheckOccurs("CommentBlockType.comment", len(t.comment), 0, -1); err != nil {
		return err
	}
	for _, c := range t.comment {
		if err := c.WriteXML(w); err != nil {
			return err
		}
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *CommentBlockType) VDOMName() string { return "CommentBlockType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *CommentBlockType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("CommentBlockType" + "\n")
	for _, c := range t.comment {
		dumpChild(sb, depth+1, c)
	}
}

func (t *CommentBlockType) xsiName() string { return "CommentBlock" }

// NoteBlockType is complex type "NoteBlock" (V-DOM interface NoteBlockType).
type NoteBlockType struct {
	note []NoteSubst
}

// CreateNoteBlockType constructs a NoteBlockType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateNoteBlockType() *NoteBlockType {
	return &NoteBlockType{}
}

// AddNote appends a note member (schema occurrence 0..unbounded).
func (t *NoteBlockType) AddNote(v NoteSubst) *NoteBlockType {
	t.note = append(t.note, v)
	return t
}

// Note returns the note members added so far.
func (t *NoteBlockType) Note() []NoteSubst { return t.note }

func (t *NoteBlockType) writeContent(w *vdom.Writer) error {
	if err := vdom.CheckOccurs("NoteBlockType.note", len(t.note), 0, -1); err != nil {
		return err
	}
	for _, c := range t.note {
		if err := c.WriteXML(w); err != nil {
			return err
		}
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *NoteBlockType) VDOMName() string { return "NoteBlockType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *NoteBlockType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("NoteBlockType" + "\n")
	for _, c := range t.note {
		dumpChild(sb, depth+1, c)
	}
}

func (t *NoteBlockType) xsiName() string { return "NoteBlock" }

// USAddressType is complex type "USAddress" (V-DOM interface USAddressType).
type USAddressType struct {
	name   *NameElement
	street *StreetElement
	city   *CityElement
	state  *StateElement
	zip    *ZipElement
}

// CreateUSAddressType constructs a USAddressType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateUSAddressType(name *NameElement, street *StreetElement, city *CityElement, state *StateElement, zip *ZipElement) *USAddressType {
	return &USAddressType{name: name, street: street, city: city, state: state, zip: zip}
}

// Name returns the required name member.
func (t *USAddressType) Name() *NameElement { return t.name }

// Street returns the required street member.
func (t *USAddressType) Street() *StreetElement { return t.street }

// City returns the required city member.
func (t *USAddressType) City() *CityElement { return t.city }

// State returns the required state member.
func (t *USAddressType) State() *StateElement { return t.state }

// Zip returns the required zip member.
func (t *USAddressType) Zip() *ZipElement { return t.zip }

func (t *USAddressType) writeContent(w *vdom.Writer) error {
	if t.name == nil {
		return vdom.Required("USAddressType", "name")
	}
	if err := t.name.WriteXML(w); err != nil {
		return err
	}
	if t.street == nil {
		return vdom.Required("USAddressType", "street")
	}
	if err := t.street.WriteXML(w); err != nil {
		return err
	}
	if t.city == nil {
		return vdom.Required("USAddressType", "city")
	}
	if err := t.city.WriteXML(w); err != nil {
		return err
	}
	if t.state == nil {
		return vdom.Required("USAddressType", "state")
	}
	if err := t.state.WriteXML(w); err != nil {
		return err
	}
	if t.zip == nil {
		return vdom.Required("USAddressType", "zip")
	}
	if err := t.zip.WriteXML(w); err != nil {
		return err
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *USAddressType) VDOMName() string { return "USAddressType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *USAddressType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("USAddressType" + "\n")
	if t.name != nil {
		dumpChild(sb, depth+1, t.name)
	}
	if t.street != nil {
		dumpChild(sb, depth+1, t.street)
	}
	if t.city != nil {
		dumpChild(sb, depth+1, t.city)
	}
	if t.state != nil {
		dumpChild(sb, depth+1, t.state)
	}
	if t.zip != nil {
		dumpChild(sb, depth+1, t.zip)
	}
}

func (t *USAddressType) xsiName() string { return "USAddress" }

func (t *USAddressType) isAddressType() {}

// AddressElement represents element <address> (V-DOM interface addressElement); its content
// is complex type AddressType.
type AddressElement struct{ content AddressTypeIface }

// CreateAddress wraps a AddressType content value in the element.
func (d *Document) CreateAddress(content AddressTypeIface) *AddressElement {
	return &AddressElement{content: content}
}

// Content returns the element's typed content.
func (e *AddressElement) Content() AddressTypeIface { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *AddressElement) XMLQName() (string, string) { return "", "address" }

// WriteXML implements vdom.ElementNode.
func (e *AddressElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("addressElement", "content")
	}
	w.Start("", "address")
	defer w.End()
	if n := e.content.xsiName(); n != "Address" && n != "" {
		w.XSIType(n)
	}
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *AddressElement) VDOMName() string { return "addressElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *AddressElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("addressElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// CommentSubst is satisfied by CommentElement and its substitution-group members
// (paper §3: substitution groups map to inheritance).
type CommentSubst interface {
	vdom.NamedElement
	isCommentSubst()
}

func (*CommentElement) isCommentSubst()         {}
func (*CustomerCommentElement) isCommentSubst() {}
func (*ShipCommentElement) isCommentSubst()     {}

// CommentElement represents element <comment> (V-DOM interface commentElement); its content
// is the simple type xsd:string.
type CommentElement struct{ value string }

// CreateComment creates the element (its string content cannot be invalid).
func (d *Document) CreateComment(value string) *CommentElement {
	return &CommentElement{value: value}
}

// Value returns the element's character content.
func (e *CommentElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *CommentElement) XMLQName() (string, string) { return "", "comment" }

// WriteXML implements vdom.ElementNode.
func (e *CommentElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "comment")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *CommentElement) VDOMName() string { return "commentElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *CommentElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("commentElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// CommentBlockElement represents element <commentBlock> (V-DOM interface commentBlockElement); its content
// is complex type CommentBlockType.
type CommentBlockElement struct{ content *CommentBlockType }

// CreateCommentBlock wraps a CommentBlockType content value in the element.
func (d *Document) CreateCommentBlock(content *CommentBlockType) *CommentBlockElement {
	return &CommentBlockElement{content: content}
}

// Content returns the element's typed content.
func (e *CommentBlockElement) Content() *CommentBlockType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *CommentBlockElement) XMLQName() (string, string) { return "", "commentBlock" }

// WriteXML implements vdom.ElementNode.
func (e *CommentBlockElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("commentBlockElement", "content")
	}
	w.Start("", "commentBlock")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *CommentBlockElement) VDOMName() string { return "commentBlockElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *CommentBlockElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("commentBlockElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// CustomerCommentElement represents element <customerComment> (V-DOM interface customerCommentElement); its content
// is the simple type xsd:string.
type CustomerCommentElement struct{ value string }

// CreateCustomerComment creates the element (its string content cannot be invalid).
func (d *Document) CreateCustomerComment(value string) *CustomerCommentElement {
	return &CustomerCommentElement{value: value}
}

// Value returns the element's character content.
func (e *CustomerCommentElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *CustomerCommentElement) XMLQName() (string, string) { return "", "customerComment" }

// WriteXML implements vdom.ElementNode.
func (e *CustomerCommentElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "customerComment")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *CustomerCommentElement) VDOMName() string { return "customerCommentElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *CustomerCommentElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("customerCommentElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// NoteSubst is satisfied by NoteElement and its substitution-group members
// (paper §3: substitution groups map to inheritance).
type NoteSubst interface {
	vdom.NamedElement
	isNoteSubst()
}

func (*NoteElement) isNoteSubst()     {}
func (*ShipNoteElement) isNoteSubst() {}

// NoteElement represents element <note> (V-DOM interface noteElement); its content
// is the simple type xsd:string.
type NoteElement struct{ value string }

// <note> is abstract: only substitution-group members appear in
// instances, so no constructor is generated.

// Value returns the element's character content.
func (e *NoteElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *NoteElement) XMLQName() (string, string) { return "", "note" }

// WriteXML implements vdom.ElementNode.
func (e *NoteElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "note")
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

// NoteBlockElement represents element <noteBlock> (V-DOM interface noteBlockElement); its content
// is complex type NoteBlockType.
type NoteBlockElement struct{ content *NoteBlockType }

// CreateNoteBlock wraps a NoteBlockType content value in the element.
func (d *Document) CreateNoteBlock(content *NoteBlockType) *NoteBlockElement {
	return &NoteBlockElement{content: content}
}

// Content returns the element's typed content.
func (e *NoteBlockElement) Content() *NoteBlockType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *NoteBlockElement) XMLQName() (string, string) { return "", "noteBlock" }

// WriteXML implements vdom.ElementNode.
func (e *NoteBlockElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("noteBlockElement", "content")
	}
	w.Start("", "noteBlock")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *NoteBlockElement) VDOMName() string { return "noteBlockElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *NoteBlockElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("noteBlockElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// ShipCommentElement represents element <shipComment> (V-DOM interface shipCommentElement); its content
// is the simple type xsd:string.
type ShipCommentElement struct{ value string }

// CreateShipComment creates the element (its string content cannot be invalid).
func (d *Document) CreateShipComment(value string) *ShipCommentElement {
	return &ShipCommentElement{value: value}
}

// Value returns the element's character content.
func (e *ShipCommentElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *ShipCommentElement) XMLQName() (string, string) { return "", "shipComment" }

// WriteXML implements vdom.ElementNode.
func (e *ShipCommentElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "shipComment")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *ShipCommentElement) VDOMName() string { return "shipCommentElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *ShipCommentElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("shipCommentElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// ShipNoteElement represents element <shipNote> (V-DOM interface shipNoteElement); its content
// is the simple type xsd:string.
type ShipNoteElement struct{ value string }

// CreateShipNote creates the element (its string content cannot be invalid).
func (d *Document) CreateShipNote(value string) *ShipNoteElement {
	return &ShipNoteElement{value: value}
}

// Value returns the element's character content.
func (e *ShipNoteElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *ShipNoteElement) XMLQName() (string, string) { return "", "shipNote" }

// WriteXML implements vdom.ElementNode.
func (e *ShipNoteElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "shipNote")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *ShipNoteElement) VDOMName() string { return "shipNoteElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *ShipNoteElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("shipNoteElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// NameElement represents element <name> (V-DOM interface nameElement); its content
// is the simple type xsd:string.
type NameElement struct{ value string }

// CreateName creates the element (its string content cannot be invalid).
func (d *Document) CreateName(value string) *NameElement {
	return &NameElement{value: value}
}

// Value returns the element's character content.
func (e *NameElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *NameElement) XMLQName() (string, string) { return "", "name" }

// WriteXML implements vdom.ElementNode.
func (e *NameElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "name")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *NameElement) VDOMName() string { return "nameElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *NameElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("nameElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// StreetElement represents element <street> (V-DOM interface streetElement); its content
// is the simple type xsd:string.
type StreetElement struct{ value string }

// CreateStreet creates the element (its string content cannot be invalid).
func (d *Document) CreateStreet(value string) *StreetElement {
	return &StreetElement{value: value}
}

// Value returns the element's character content.
func (e *StreetElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *StreetElement) XMLQName() (string, string) { return "", "street" }

// WriteXML implements vdom.ElementNode.
func (e *StreetElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "street")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *StreetElement) VDOMName() string { return "streetElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *StreetElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("streetElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// CityElement represents element <city> (V-DOM interface cityElement); its content
// is the simple type xsd:string.
type CityElement struct{ value string }

// CreateCity creates the element (its string content cannot be invalid).
func (d *Document) CreateCity(value string) *CityElement {
	return &CityElement{value: value}
}

// Value returns the element's character content.
func (e *CityElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *CityElement) XMLQName() (string, string) { return "", "city" }

// WriteXML implements vdom.ElementNode.
func (e *CityElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "city")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *CityElement) VDOMName() string { return "cityElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *CityElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("cityElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// StateElement represents element <state> (V-DOM interface stateElement); its content
// is the simple type xsd:string.
type StateElement struct{ value string }

// CreateState creates the element (its string content cannot be invalid).
func (d *Document) CreateState(value string) *StateElement {
	return &StateElement{value: value}
}

// Value returns the element's character content.
func (e *StateElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *StateElement) XMLQName() (string, string) { return "", "state" }

// WriteXML implements vdom.ElementNode.
func (e *StateElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "state")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *StateElement) VDOMName() string { return "stateElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *StateElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("stateElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// ZipElement represents element <zip> (V-DOM interface zipElement); its content
// is the simple type xsd:string.
type ZipElement struct{ value string }

// CreateZip creates the element (its string content cannot be invalid).
func (d *Document) CreateZip(value string) *ZipElement {
	return &ZipElement{value: value}
}

// Value returns the element's character content.
func (e *ZipElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *ZipElement) XMLQName() (string, string) { return "", "zip" }

// WriteXML implements vdom.ElementNode.
func (e *ZipElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "zip")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *ZipElement) VDOMName() string { return "zipElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *ZipElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("zipElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}
