// Code generated by vdomgen from the nested-groups schema (group-promotion coverage). DO NOT EDIT.
//
// V-DOM bindings (paper: Kempa & Linnemann, EDBT 2002): one distinct Go
// type per element declaration, type definition and model group of the
// schema. Trees built through this API are schema-valid by construction;
// occurrence counts, required attributes and simple-type facets are
// checked when the tree is written (vdom.AppendXML).
package mixgen

import (
	"strings"

	"repro/internal/dom"
	"repro/internal/normalize"
	"repro/internal/vdom"
)

// SchemaSource is the XML Schema these bindings were generated from.
const SchemaSource = "<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n\n  <xsd:element name=\"report\" type=\"Report\"/>\n\n  <xsd:complexType name=\"Report\">\n    <xsd:sequence>\n      <xsd:element name=\"title\" type=\"xsd:string\"/>\n      <xsd:choice>\n        <xsd:element name=\"summary\" type=\"xsd:string\"/>\n        <xsd:sequence>\n          <xsd:element name=\"first\" type=\"xsd:string\"/>\n          <xsd:element name=\"last\" type=\"xsd:string\"/>\n        </xsd:sequence>\n      </xsd:choice>\n      <xsd:sequence minOccurs=\"0\" maxOccurs=\"unbounded\">\n        <xsd:element name=\"key\" type=\"xsd:string\"/>\n        <xsd:element name=\"value\" type=\"xsd:string\"/>\n      </xsd:sequence>\n      <xsd:element name=\"entry\" minOccurs=\"0\" maxOccurs=\"unbounded\">\n        <xsd:complexType>\n          <xsd:sequence>\n            <xsd:element name=\"when\" type=\"xsd:date\"/>\n          </xsd:sequence>\n          <xsd:attribute name=\"id\" type=\"xsd:ID\"/>\n        </xsd:complexType>\n      </xsd:element>\n    </xsd:sequence>\n    <xsd:attribute name=\"version\" type=\"xsd:positiveInteger\"/>\n  </xsd:complexType>\n\n</xsd:schema>\n"

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

// FirstANDlastGroup is the sequence group {first, last} promoted from type ReportType.
type FirstANDlastGroup struct {
	first *FirstElement
	last  *LastElement
}

// CreateFirstANDlastGroup constructs a FirstANDlastGroup with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateFirstANDlastGroup(first *FirstElement, last *LastElement) *FirstANDlastGroup {
	return &FirstANDlastGroup{first: first, last: last}
}

// First returns the required first member.
func (t *FirstANDlastGroup) First() *FirstElement { return t.first }

// Last returns the required last member.
func (t *FirstANDlastGroup) Last() *LastElement { return t.last }

// WriteXML writes the group's members into the open element (a group
// has no wrapper element of its own).
func (t *FirstANDlastGroup) WriteXML(w *vdom.Writer) error {
	if w.Depth() == 0 {
		return vdom.Required("FirstANDlastGroup", "an element parent")
	}
	if t.first == nil {
		return vdom.Required("FirstANDlastGroup", "first")
	}
	if err := t.first.WriteXML(w); err != nil {
		return err
	}
	if t.last == nil {
		return vdom.Required("FirstANDlastGroup", "last")
	}
	if err := t.last.WriteXML(w); err != nil {
		return err
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *FirstANDlastGroup) VDOMName() string { return "firstANDlastGroup" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *FirstANDlastGroup) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("firstANDlastGroup" + "\n")
	if t.first != nil {
		dumpChild(sb, depth+1, t.first)
	}
	if t.last != nil {
		dumpChild(sb, depth+1, t.last)
	}
}

// ReportCC2Group is the sealed choice group {summary | (...)} of type ReportType (paper Fig. 6:
// a super-interface per choice, alternatives implement it).
type ReportCC2Group interface {
	vdom.ElementNode
	isReportCC2Group()
}

func (*FirstANDlastGroup) isReportCC2Group() {}
func (*SummaryElement) isReportCC2Group()    {}

// KeyANDvalueList is the sequence group {key, value} promoted from type ReportType.
type KeyANDvalueList struct {
	key   *KeyElement
	value *ValueElement
}

// CreateKeyANDvalueList constructs a KeyANDvalueList with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateKeyANDvalueList(key *KeyElement, value *ValueElement) *KeyANDvalueList {
	return &KeyANDvalueList{key: key, value: value}
}

// Key returns the required key member.
func (t *KeyANDvalueList) Key() *KeyElement { return t.key }

// Value returns the required value member.
func (t *KeyANDvalueList) Value() *ValueElement { return t.value }

// WriteXML writes the group's members into the open element (a group
// has no wrapper element of its own).
func (t *KeyANDvalueList) WriteXML(w *vdom.Writer) error {
	if w.Depth() == 0 {
		return vdom.Required("KeyANDvalueList", "an element parent")
	}
	if t.key == nil {
		return vdom.Required("KeyANDvalueList", "key")
	}
	if err := t.key.WriteXML(w); err != nil {
		return err
	}
	if t.value == nil {
		return vdom.Required("KeyANDvalueList", "value")
	}
	if err := t.value.WriteXML(w); err != nil {
		return err
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *KeyANDvalueList) VDOMName() string { return "keyANDvalueList" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *KeyANDvalueList) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("keyANDvalueList" + "\n")
	if t.key != nil {
		dumpChild(sb, depth+1, t.key)
	}
	if t.value != nil {
		dumpChild(sb, depth+1, t.value)
	}
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

// EntryTypeType is complex type "EntryType" (V-DOM interface EntryTypeType).
type EntryTypeType struct {
	when   *WhenElement
	attrId *string
}

// CreateEntryTypeType constructs a EntryTypeType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateEntryTypeType(when *WhenElement) *EntryTypeType {
	return &EntryTypeType{when: when}
}

// When returns the required when member.
func (t *EntryTypeType) When() *WhenElement { return t.when }

// SetId validates and sets the "id" attribute (type ID).
func (t *EntryTypeType) SetId(lexical string) error {
	if err := RT.CheckAttr("EntryType", "id", lexical); err != nil {
		return err
	}
	t.attrId = &lexical
	return nil
}

// Id returns the "id" attribute and whether it is set.
func (t *EntryTypeType) Id() (string, bool) {
	if t.attrId == nil {
		return "", false
	}
	return *t.attrId, true
}

func (t *EntryTypeType) writeContent(w *vdom.Writer) error {
	if t.attrId != nil {
		w.Attr("id", *t.attrId)
	}
	if t.when == nil {
		return vdom.Required("EntryTypeType", "when")
	}
	if err := t.when.WriteXML(w); err != nil {
		return err
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *EntryTypeType) VDOMName() string { return "EntryTypeType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *EntryTypeType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("EntryTypeType" + "\n")
	if t.when != nil {
		dumpChild(sb, depth+1, t.when)
	}
}

func (t *EntryTypeType) xsiName() string { return "" }

// ReportType is complex type "Report" (V-DOM interface ReportType).
type ReportType struct {
	title           *TitleElement
	reportCC2Group  ReportCC2Group
	keyANDvalueList []*KeyANDvalueList
	entry           []*EntryElement
	attrVersion     *string
}

// CreateReportType constructs a ReportType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateReportType(title *TitleElement, reportCC2Group ReportCC2Group) *ReportType {
	return &ReportType{title: title, reportCC2Group: reportCC2Group}
}

// Title returns the required title member.
func (t *ReportType) Title() *TitleElement { return t.title }

// ReportCC2Group returns the required reportCC2Group member.
func (t *ReportType) ReportCC2Group() ReportCC2Group { return t.reportCC2Group }

// AddKeyANDvalueList appends a keyANDvalueList member (schema occurrence 0..unbounded).
func (t *ReportType) AddKeyANDvalueList(v *KeyANDvalueList) *ReportType {
	t.keyANDvalueList = append(t.keyANDvalueList, v)
	return t
}

// KeyANDvalueList returns the keyANDvalueList members added so far.
func (t *ReportType) KeyANDvalueList() []*KeyANDvalueList { return t.keyANDvalueList }

// AddEntry appends a entry member (schema occurrence 0..unbounded).
func (t *ReportType) AddEntry(v *EntryElement) *ReportType {
	t.entry = append(t.entry, v)
	return t
}

// Entry returns the entry members added so far.
func (t *ReportType) Entry() []*EntryElement { return t.entry }

// SetVersion validates and sets the "version" attribute (type positiveInteger).
func (t *ReportType) SetVersion(lexical string) error {
	if err := RT.CheckAttr("Report", "version", lexical); err != nil {
		return err
	}
	t.attrVersion = &lexical
	return nil
}

// Version returns the "version" attribute and whether it is set.
func (t *ReportType) Version() (string, bool) {
	if t.attrVersion == nil {
		return "", false
	}
	return *t.attrVersion, true
}

func (t *ReportType) writeContent(w *vdom.Writer) error {
	if t.attrVersion != nil {
		w.Attr("version", *t.attrVersion)
	}
	if t.title == nil {
		return vdom.Required("ReportType", "title")
	}
	if err := t.title.WriteXML(w); err != nil {
		return err
	}
	if t.reportCC2Group == nil {
		return vdom.Required("ReportType", "reportCC2Group")
	}
	if err := t.reportCC2Group.WriteXML(w); err != nil {
		return err
	}
	if err := vdom.CheckOccurs("ReportType.keyANDvalueList", len(t.keyANDvalueList), 0, -1); err != nil {
		return err
	}
	for _, c := range t.keyANDvalueList {
		if err := c.WriteXML(w); err != nil {
			return err
		}
	}
	if err := vdom.CheckOccurs("ReportType.entry", len(t.entry), 0, -1); err != nil {
		return err
	}
	for _, c := range t.entry {
		if err := c.WriteXML(w); err != nil {
			return err
		}
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *ReportType) VDOMName() string { return "ReportType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *ReportType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("ReportType" + "\n")
	if t.title != nil {
		dumpChild(sb, depth+1, t.title)
	}
	if t.reportCC2Group != nil {
		dumpChild(sb, depth+1, t.reportCC2Group)
	}
	for _, c := range t.keyANDvalueList {
		dumpChild(sb, depth+1, c)
	}
	for _, c := range t.entry {
		dumpChild(sb, depth+1, c)
	}
}

func (t *ReportType) xsiName() string { return "Report" }

// ReportElement represents element <report> (V-DOM interface reportElement); its content
// is complex type ReportType.
type ReportElement struct{ content *ReportType }

// CreateReport wraps a ReportType content value in the element.
func (d *Document) CreateReport(content *ReportType) *ReportElement {
	return &ReportElement{content: content}
}

// Content returns the element's typed content.
func (e *ReportElement) Content() *ReportType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *ReportElement) XMLQName() (string, string) { return "", "report" }

// WriteXML implements vdom.ElementNode.
func (e *ReportElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("reportElement", "content")
	}
	w.Start("", "report")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *ReportElement) VDOMName() string { return "reportElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *ReportElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("reportElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// TitleElement represents element <title> (V-DOM interface titleElement); its content
// is the simple type xsd:string.
type TitleElement struct{ value string }

// CreateTitle creates the element (its string content cannot be invalid).
func (d *Document) CreateTitle(value string) *TitleElement {
	return &TitleElement{value: value}
}

// Value returns the element's character content.
func (e *TitleElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *TitleElement) XMLQName() (string, string) { return "", "title" }

// WriteXML implements vdom.ElementNode.
func (e *TitleElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "title")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *TitleElement) VDOMName() string { return "titleElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *TitleElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("titleElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// SummaryElement represents element <summary> (V-DOM interface summaryElement); its content
// is the simple type xsd:string.
type SummaryElement struct{ value string }

// CreateSummary creates the element (its string content cannot be invalid).
func (d *Document) CreateSummary(value string) *SummaryElement {
	return &SummaryElement{value: value}
}

// Value returns the element's character content.
func (e *SummaryElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *SummaryElement) XMLQName() (string, string) { return "", "summary" }

// WriteXML implements vdom.ElementNode.
func (e *SummaryElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "summary")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *SummaryElement) VDOMName() string { return "summaryElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *SummaryElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("summaryElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// FirstElement represents element <first> (V-DOM interface firstElement); its content
// is the simple type xsd:string.
type FirstElement struct{ value string }

// CreateFirst creates the element (its string content cannot be invalid).
func (d *Document) CreateFirst(value string) *FirstElement {
	return &FirstElement{value: value}
}

// Value returns the element's character content.
func (e *FirstElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *FirstElement) XMLQName() (string, string) { return "", "first" }

// WriteXML implements vdom.ElementNode.
func (e *FirstElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "first")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *FirstElement) VDOMName() string { return "firstElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *FirstElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("firstElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// LastElement represents element <last> (V-DOM interface lastElement); its content
// is the simple type xsd:string.
type LastElement struct{ value string }

// CreateLast creates the element (its string content cannot be invalid).
func (d *Document) CreateLast(value string) *LastElement {
	return &LastElement{value: value}
}

// Value returns the element's character content.
func (e *LastElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *LastElement) XMLQName() (string, string) { return "", "last" }

// WriteXML implements vdom.ElementNode.
func (e *LastElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "last")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *LastElement) VDOMName() string { return "lastElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *LastElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("lastElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
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

// EntryElement represents element <entry> (V-DOM interface entryElement); its content
// is complex type EntryTypeType.
type EntryElement struct{ content *EntryTypeType }

// CreateEntry wraps a EntryTypeType content value in the element.
func (d *Document) CreateEntry(content *EntryTypeType) *EntryElement {
	return &EntryElement{content: content}
}

// Content returns the element's typed content.
func (e *EntryElement) Content() *EntryTypeType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *EntryElement) XMLQName() (string, string) { return "", "entry" }

// WriteXML implements vdom.ElementNode.
func (e *EntryElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("entryElement", "content")
	}
	w.Start("", "entry")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *EntryElement) VDOMName() string { return "entryElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *EntryElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("entryElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// WhenElement represents element <when> (V-DOM interface whenElement); its content
// is the simple type xsd:date.
type WhenElement struct{ value string }

// CreateWhen validates the value and creates the element.
func (d *Document) CreateWhen(value string) (*WhenElement, error) {
	if err := vdom.CheckBuiltin("date", value); err != nil {
		return nil, err
	}
	return &WhenElement{value: value}, nil
}

// MustWhen panics on an invalid value.
func (d *Document) MustWhen(value string) *WhenElement {
	e, err := d.CreateWhen(value)
	if err != nil {
		panic(err)
	}
	return e
}

// Value returns the element's character content.
func (e *WhenElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *WhenElement) XMLQName() (string, string) { return "", "when" }

// WriteXML implements vdom.ElementNode.
func (e *WhenElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "when")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *WhenElement) VDOMName() string { return "whenElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *WhenElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("whenElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}
