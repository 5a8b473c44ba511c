// Code generated by vdomgen from the evolved purchase order schema (paper §3 choice example). DO NOT EDIT.
//
// V-DOM bindings (paper: Kempa & Linnemann, EDBT 2002): one distinct Go
// type per element declaration, type definition and model group of the
// schema. Trees built through this API are schema-valid by construction;
// occurrence counts, required attributes and simple-type facets are
// checked when the tree is written (vdom.AppendXML).
package evolvedgen

import (
	"strings"

	"repro/internal/dom"
	"repro/internal/normalize"
	"repro/internal/vdom"
)

// SchemaSource is the XML Schema these bindings were generated from.
const SchemaSource = "<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n\n  <xsd:element name=\"purchaseOrder\" type=\"PurchaseOrderType\"/>\n  <xsd:element name=\"comment\" type=\"xsd:string\"/>\n\n  <xsd:complexType name=\"PurchaseOrderType\">\n    <xsd:sequence>\n      <xsd:choice>\n        <xsd:element name=\"singAddr\" type=\"USAddress\"/>\n        <xsd:element name=\"twoAddr\" type=\"twoAddress\"/>\n      </xsd:choice>\n      <xsd:element ref=\"comment\" minOccurs=\"0\"/>\n      <xsd:element name=\"items\" type=\"Items\"/>\n    </xsd:sequence>\n    <xsd:attribute name=\"orderDate\" type=\"xsd:date\"/>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"twoAddress\">\n    <xsd:sequence>\n      <xsd:element name=\"first\" type=\"USAddress\"/>\n      <xsd:element name=\"second\" type=\"USAddress\"/>\n    </xsd:sequence>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"USAddress\">\n    <xsd:sequence>\n      <xsd:element name=\"name\" type=\"xsd:string\"/>\n      <xsd:element name=\"street\" type=\"xsd:string\"/>\n      <xsd:element name=\"city\" type=\"xsd:string\"/>\n      <xsd:element name=\"state\" type=\"xsd:string\"/>\n      <xsd:element name=\"zip\" type=\"xsd:decimal\"/>\n    </xsd:sequence>\n    <xsd:attribute name=\"country\" type=\"xsd:NMTOKEN\" fixed=\"US\"/>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"Items\">\n    <xsd:sequence>\n      <xsd:element name=\"item\" minOccurs=\"0\" maxOccurs=\"unbounded\" type=\"ItemType\"/>\n    </xsd:sequence>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"ItemType\">\n    <xsd:sequence>\n      <xsd:element name=\"productName\" type=\"xsd:string\"/>\n      <xsd:element name=\"quantity\" type=\"xsd:positiveInteger\"/>\n      <xsd:element name=\"USPrice\" type=\"xsd:decimal\"/>\n    </xsd:sequence>\n    <xsd:attribute name=\"partNum\" type=\"xsd:string\" use=\"required\"/>\n  </xsd:complexType>\n\n</xsd:schema>\n"

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

// PurchaseOrderTypeCC1Group is the sealed choice group {singAddr | twoAddr} of type PurchaseOrderTypeType (paper Fig. 6:
// a super-interface per choice, alternatives implement it).
type PurchaseOrderTypeCC1Group interface {
	vdom.ElementNode
	isPurchaseOrderTypeCC1Group()
}

func (*SingAddrElement) isPurchaseOrderTypeCC1Group() {}
func (*TwoAddrElement) isPurchaseOrderTypeCC1Group()  {}

// dumpChild renders any child node in a dump.
func dumpChild(sb *strings.Builder, depth int, n vdom.Node) {
	if d, ok := n.(vdom.Dumper); ok {
		d.DumpInto(sb, depth)
		return
	}
	vdom.Indent(sb, depth)
	sb.WriteString(n.VDOMName() + "\n")
}

// ItemTypeType is complex type "ItemType" (V-DOM interface ItemTypeType).
type ItemTypeType struct {
	productName *ProductNameElement
	quantity    *QuantityElement
	uSPrice     *USPriceElement
	attrPartNum *string
}

// CreateItemTypeType constructs a ItemTypeType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateItemTypeType(productName *ProductNameElement, quantity *QuantityElement, uSPrice *USPriceElement) *ItemTypeType {
	return &ItemTypeType{productName: productName, quantity: quantity, uSPrice: uSPrice}
}

// ProductName returns the required productName member.
func (t *ItemTypeType) ProductName() *ProductNameElement { return t.productName }

// Quantity returns the required quantity member.
func (t *ItemTypeType) Quantity() *QuantityElement { return t.quantity }

// USPrice returns the required uSPrice member.
func (t *ItemTypeType) USPrice() *USPriceElement { return t.uSPrice }

// SetPartNum validates and sets the "partNum" attribute (type string).
func (t *ItemTypeType) SetPartNum(lexical string) error {
	if err := RT.CheckAttr("ItemType", "partNum", lexical); err != nil {
		return err
	}
	t.attrPartNum = &lexical
	return nil
}

// PartNum returns the "partNum" attribute and whether it is set.
func (t *ItemTypeType) PartNum() (string, bool) {
	if t.attrPartNum == nil {
		return "", false
	}
	return *t.attrPartNum, true
}

func (t *ItemTypeType) writeContent(w *vdom.Writer) error {
	if t.attrPartNum != nil {
		w.Attr("partNum", *t.attrPartNum)
	} else {
		return vdom.Required("ItemTypeType", "attribute partNum")
	}
	if t.productName == nil {
		return vdom.Required("ItemTypeType", "productName")
	}
	if err := t.productName.WriteXML(w); err != nil {
		return err
	}
	if t.quantity == nil {
		return vdom.Required("ItemTypeType", "quantity")
	}
	if err := t.quantity.WriteXML(w); err != nil {
		return err
	}
	if t.uSPrice == nil {
		return vdom.Required("ItemTypeType", "uSPrice")
	}
	if err := t.uSPrice.WriteXML(w); err != nil {
		return err
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *ItemTypeType) VDOMName() string { return "ItemTypeType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *ItemTypeType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("ItemTypeType" + "\n")
	if t.productName != nil {
		dumpChild(sb, depth+1, t.productName)
	}
	if t.quantity != nil {
		dumpChild(sb, depth+1, t.quantity)
	}
	if t.uSPrice != nil {
		dumpChild(sb, depth+1, t.uSPrice)
	}
}

func (t *ItemTypeType) xsiName() string { return "ItemType" }

// ItemsType is complex type "Items" (V-DOM interface ItemsType).
type ItemsType struct {
	item []*ItemElement
}

// CreateItemsType constructs a ItemsType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateItemsType() *ItemsType {
	return &ItemsType{}
}

// AddItem appends a item member (schema occurrence 0..unbounded).
func (t *ItemsType) AddItem(v *ItemElement) *ItemsType {
	t.item = append(t.item, v)
	return t
}

// Item returns the item members added so far.
func (t *ItemsType) Item() []*ItemElement { return t.item }

func (t *ItemsType) writeContent(w *vdom.Writer) error {
	if err := vdom.CheckOccurs("ItemsType.item", len(t.item), 0, -1); err != nil {
		return err
	}
	for _, c := range t.item {
		if err := c.WriteXML(w); err != nil {
			return err
		}
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *ItemsType) VDOMName() string { return "ItemsType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *ItemsType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("ItemsType" + "\n")
	for _, c := range t.item {
		dumpChild(sb, depth+1, c)
	}
}

func (t *ItemsType) xsiName() string { return "Items" }

// PurchaseOrderTypeType is complex type "PurchaseOrderType" (V-DOM interface PurchaseOrderTypeType).
type PurchaseOrderTypeType struct {
	purchaseOrderTypeCC1Group PurchaseOrderTypeCC1Group
	comment                   *CommentElement
	items                     *ItemsElement
	attrOrderDate             *string
}

// CreatePurchaseOrderTypeType constructs a PurchaseOrderTypeType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreatePurchaseOrderTypeType(purchaseOrderTypeCC1Group PurchaseOrderTypeCC1Group, items *ItemsElement) *PurchaseOrderTypeType {
	return &PurchaseOrderTypeType{purchaseOrderTypeCC1Group: purchaseOrderTypeCC1Group, items: items}
}

// PurchaseOrderTypeCC1Group returns the required purchaseOrderTypeCC1Group member.
func (t *PurchaseOrderTypeType) PurchaseOrderTypeCC1Group() PurchaseOrderTypeCC1Group {
	return t.purchaseOrderTypeCC1Group
}

// SetComment sets the optional comment member.
func (t *PurchaseOrderTypeType) SetComment(v *CommentElement) *PurchaseOrderTypeType {
	t.comment = v
	return t
}

// Comment returns the comment member (nil when unset).
func (t *PurchaseOrderTypeType) Comment() *CommentElement { return t.comment }

// Items returns the required items member.
func (t *PurchaseOrderTypeType) Items() *ItemsElement { return t.items }

// SetOrderDate validates and sets the "orderDate" attribute (type date).
func (t *PurchaseOrderTypeType) SetOrderDate(lexical string) error {
	if err := RT.CheckAttr("PurchaseOrderType", "orderDate", lexical); err != nil {
		return err
	}
	t.attrOrderDate = &lexical
	return nil
}

// OrderDate returns the "orderDate" attribute and whether it is set.
func (t *PurchaseOrderTypeType) OrderDate() (string, bool) {
	if t.attrOrderDate == nil {
		return "", false
	}
	return *t.attrOrderDate, true
}

func (t *PurchaseOrderTypeType) writeContent(w *vdom.Writer) error {
	if t.attrOrderDate != nil {
		w.Attr("orderDate", *t.attrOrderDate)
	}
	if t.purchaseOrderTypeCC1Group == nil {
		return vdom.Required("PurchaseOrderTypeType", "purchaseOrderTypeCC1Group")
	}
	if err := t.purchaseOrderTypeCC1Group.WriteXML(w); err != nil {
		return err
	}
	if t.comment != nil {
		if err := t.comment.WriteXML(w); err != nil {
			return err
		}
	}
	if t.items == nil {
		return vdom.Required("PurchaseOrderTypeType", "items")
	}
	if err := t.items.WriteXML(w); err != nil {
		return err
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *PurchaseOrderTypeType) VDOMName() string { return "PurchaseOrderTypeType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *PurchaseOrderTypeType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("PurchaseOrderTypeType" + "\n")
	if t.purchaseOrderTypeCC1Group != nil {
		dumpChild(sb, depth+1, t.purchaseOrderTypeCC1Group)
	}
	if t.comment != nil {
		dumpChild(sb, depth+1, t.comment)
	}
	if t.items != nil {
		dumpChild(sb, depth+1, t.items)
	}
}

func (t *PurchaseOrderTypeType) xsiName() string { return "PurchaseOrderType" }

// USAddressType is complex type "USAddress" (V-DOM interface USAddressType).
type USAddressType struct {
	name        *NameElement
	street      *StreetElement
	city        *CityElement
	state       *StateElement
	zip         *ZipElement
	attrCountry *string
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

// SetCountry validates and sets the "country" attribute (type NMTOKEN).
func (t *USAddressType) SetCountry(lexical string) error {
	if err := RT.CheckAttr("USAddress", "country", lexical); err != nil {
		return err
	}
	t.attrCountry = &lexical
	return nil
}

// Country returns the "country" attribute and whether it is set.
func (t *USAddressType) Country() (string, bool) {
	if t.attrCountry == nil {
		return "", false
	}
	return *t.attrCountry, true
}

func (t *USAddressType) writeContent(w *vdom.Writer) error {
	if t.attrCountry != nil {
		w.Attr("country", *t.attrCountry)
	}
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

// TwoAddressType is complex type "twoAddress" (V-DOM interface twoAddressType).
type TwoAddressType struct {
	first  *FirstElement
	second *SecondElement
}

// CreateTwoAddressType constructs a TwoAddressType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreateTwoAddressType(first *FirstElement, second *SecondElement) *TwoAddressType {
	return &TwoAddressType{first: first, second: second}
}

// First returns the required first member.
func (t *TwoAddressType) First() *FirstElement { return t.first }

// Second returns the required second member.
func (t *TwoAddressType) Second() *SecondElement { return t.second }

func (t *TwoAddressType) writeContent(w *vdom.Writer) error {
	if t.first == nil {
		return vdom.Required("TwoAddressType", "first")
	}
	if err := t.first.WriteXML(w); err != nil {
		return err
	}
	if t.second == nil {
		return vdom.Required("TwoAddressType", "second")
	}
	if err := t.second.WriteXML(w); err != nil {
		return err
	}
	return nil
}

// VDOMName implements vdom.Node.
func (t *TwoAddressType) VDOMName() string { return "twoAddressType" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (t *TwoAddressType) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("twoAddressType" + "\n")
	if t.first != nil {
		dumpChild(sb, depth+1, t.first)
	}
	if t.second != nil {
		dumpChild(sb, depth+1, t.second)
	}
}

func (t *TwoAddressType) xsiName() string { return "twoAddress" }

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

// PurchaseOrderElement represents element <purchaseOrder> (V-DOM interface purchaseOrderElement); its content
// is complex type PurchaseOrderTypeType.
type PurchaseOrderElement struct{ content *PurchaseOrderTypeType }

// CreatePurchaseOrder wraps a PurchaseOrderTypeType content value in the element.
func (d *Document) CreatePurchaseOrder(content *PurchaseOrderTypeType) *PurchaseOrderElement {
	return &PurchaseOrderElement{content: content}
}

// Content returns the element's typed content.
func (e *PurchaseOrderElement) Content() *PurchaseOrderTypeType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *PurchaseOrderElement) XMLQName() (string, string) { return "", "purchaseOrder" }

// WriteXML implements vdom.ElementNode.
func (e *PurchaseOrderElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("purchaseOrderElement", "content")
	}
	w.Start("", "purchaseOrder")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *PurchaseOrderElement) VDOMName() string { return "purchaseOrderElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *PurchaseOrderElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("purchaseOrderElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// ProductNameElement represents element <productName> (V-DOM interface productNameElement); its content
// is the simple type xsd:string.
type ProductNameElement struct{ value string }

// CreateProductName creates the element (its string content cannot be invalid).
func (d *Document) CreateProductName(value string) *ProductNameElement {
	return &ProductNameElement{value: value}
}

// Value returns the element's character content.
func (e *ProductNameElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *ProductNameElement) XMLQName() (string, string) { return "", "productName" }

// WriteXML implements vdom.ElementNode.
func (e *ProductNameElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "productName")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *ProductNameElement) VDOMName() string { return "productNameElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *ProductNameElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("productNameElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// QuantityElement represents element <quantity> (V-DOM interface quantityElement); its content
// is the simple type xsd:positiveInteger.
type QuantityElement struct{ value string }

// CreateQuantity validates the value and creates the element.
func (d *Document) CreateQuantity(value string) (*QuantityElement, error) {
	if err := vdom.CheckBuiltin("positiveInteger", value); err != nil {
		return nil, err
	}
	return &QuantityElement{value: value}, nil
}

// MustQuantity panics on an invalid value.
func (d *Document) MustQuantity(value string) *QuantityElement {
	e, err := d.CreateQuantity(value)
	if err != nil {
		panic(err)
	}
	return e
}

// Value returns the element's character content.
func (e *QuantityElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *QuantityElement) XMLQName() (string, string) { return "", "quantity" }

// WriteXML implements vdom.ElementNode.
func (e *QuantityElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "quantity")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *QuantityElement) VDOMName() string { return "quantityElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *QuantityElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("quantityElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// USPriceElement represents element <USPrice> (V-DOM interface uSPriceElement); its content
// is the simple type xsd:decimal.
type USPriceElement struct{ value string }

// CreateUSPrice validates the value and creates the element.
func (d *Document) CreateUSPrice(value string) (*USPriceElement, error) {
	if err := vdom.CheckBuiltin("decimal", value); err != nil {
		return nil, err
	}
	return &USPriceElement{value: value}, nil
}

// MustUSPrice panics on an invalid value.
func (d *Document) MustUSPrice(value string) *USPriceElement {
	e, err := d.CreateUSPrice(value)
	if err != nil {
		panic(err)
	}
	return e
}

// Value returns the element's character content.
func (e *USPriceElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *USPriceElement) XMLQName() (string, string) { return "", "USPrice" }

// WriteXML implements vdom.ElementNode.
func (e *USPriceElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "USPrice")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *USPriceElement) VDOMName() string { return "uSPriceElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *USPriceElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("uSPriceElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}

// ItemElement represents element <item> (V-DOM interface itemElement); its content
// is complex type ItemTypeType.
type ItemElement struct{ content *ItemTypeType }

// CreateItem wraps a ItemTypeType content value in the element.
func (d *Document) CreateItem(content *ItemTypeType) *ItemElement {
	return &ItemElement{content: content}
}

// Content returns the element's typed content.
func (e *ItemElement) Content() *ItemTypeType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *ItemElement) XMLQName() (string, string) { return "", "item" }

// WriteXML implements vdom.ElementNode.
func (e *ItemElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("itemElement", "content")
	}
	w.Start("", "item")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *ItemElement) VDOMName() string { return "itemElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *ItemElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("itemElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// SingAddrElement represents element <singAddr> (V-DOM interface singAddrElement); its content
// is complex type USAddressType.
type SingAddrElement struct{ content *USAddressType }

// CreateSingAddr wraps a USAddressType content value in the element.
func (d *Document) CreateSingAddr(content *USAddressType) *SingAddrElement {
	return &SingAddrElement{content: content}
}

// Content returns the element's typed content.
func (e *SingAddrElement) Content() *USAddressType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *SingAddrElement) XMLQName() (string, string) { return "", "singAddr" }

// WriteXML implements vdom.ElementNode.
func (e *SingAddrElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("singAddrElement", "content")
	}
	w.Start("", "singAddr")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *SingAddrElement) VDOMName() string { return "singAddrElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *SingAddrElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("singAddrElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// TwoAddrElement represents element <twoAddr> (V-DOM interface twoAddrElement); its content
// is complex type TwoAddressType.
type TwoAddrElement struct{ content *TwoAddressType }

// CreateTwoAddr wraps a TwoAddressType content value in the element.
func (d *Document) CreateTwoAddr(content *TwoAddressType) *TwoAddrElement {
	return &TwoAddrElement{content: content}
}

// Content returns the element's typed content.
func (e *TwoAddrElement) Content() *TwoAddressType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *TwoAddrElement) XMLQName() (string, string) { return "", "twoAddr" }

// WriteXML implements vdom.ElementNode.
func (e *TwoAddrElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("twoAddrElement", "content")
	}
	w.Start("", "twoAddr")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *TwoAddrElement) VDOMName() string { return "twoAddrElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *TwoAddrElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("twoAddrElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// ItemsElement represents element <items> (V-DOM interface itemsElement); its content
// is complex type ItemsType.
type ItemsElement struct{ content *ItemsType }

// CreateItems wraps a ItemsType content value in the element.
func (d *Document) CreateItems(content *ItemsType) *ItemsElement {
	return &ItemsElement{content: content}
}

// Content returns the element's typed content.
func (e *ItemsElement) Content() *ItemsType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *ItemsElement) XMLQName() (string, string) { return "", "items" }

// WriteXML implements vdom.ElementNode.
func (e *ItemsElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("itemsElement", "content")
	}
	w.Start("", "items")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *ItemsElement) VDOMName() string { return "itemsElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *ItemsElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("itemsElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
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
// is the simple type xsd:decimal.
type ZipElement struct{ value string }

// CreateZip validates the value and creates the element.
func (d *Document) CreateZip(value string) (*ZipElement, error) {
	if err := vdom.CheckBuiltin("decimal", value); err != nil {
		return nil, err
	}
	return &ZipElement{value: value}, nil
}

// MustZip panics on an invalid value.
func (d *Document) MustZip(value string) *ZipElement {
	e, err := d.CreateZip(value)
	if err != nil {
		panic(err)
	}
	return e
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

// FirstElement represents element <first> (V-DOM interface firstElement); its content
// is complex type USAddressType.
type FirstElement struct{ content *USAddressType }

// CreateFirst wraps a USAddressType content value in the element.
func (d *Document) CreateFirst(content *USAddressType) *FirstElement {
	return &FirstElement{content: content}
}

// Content returns the element's typed content.
func (e *FirstElement) Content() *USAddressType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *FirstElement) XMLQName() (string, string) { return "", "first" }

// WriteXML implements vdom.ElementNode.
func (e *FirstElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("firstElement", "content")
	}
	w.Start("", "first")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *FirstElement) VDOMName() string { return "firstElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *FirstElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("firstElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// SecondElement represents element <second> (V-DOM interface secondElement); its content
// is complex type USAddressType.
type SecondElement struct{ content *USAddressType }

// CreateSecond wraps a USAddressType content value in the element.
func (d *Document) CreateSecond(content *USAddressType) *SecondElement {
	return &SecondElement{content: content}
}

// Content returns the element's typed content.
func (e *SecondElement) Content() *USAddressType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *SecondElement) XMLQName() (string, string) { return "", "second" }

// WriteXML implements vdom.ElementNode.
func (e *SecondElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("secondElement", "content")
	}
	w.Start("", "second")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *SecondElement) VDOMName() string { return "secondElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *SecondElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("secondElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}
