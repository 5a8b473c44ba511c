// Code generated by vdomgen from the purchase order schema (paper Fig. 2/3). DO NOT EDIT.
//
// V-DOM bindings (paper: Kempa & Linnemann, EDBT 2002): one distinct Go
// type per element declaration, type definition and model group of the
// schema. Trees built through this API are schema-valid by construction;
// occurrence counts, required attributes and simple-type facets are
// checked when the tree is written (vdom.AppendXML).
package pogen

import (
	"strings"

	"repro/internal/dom"
	"repro/internal/normalize"
	"repro/internal/vdom"
)

// SchemaSource is the XML Schema these bindings were generated from.
const SchemaSource = "<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n\n  <xsd:annotation>\n    <xsd:documentation xml:lang=\"en\">\n      Purchase order schema for Example.com.\n      Copyright 2000 Example.com. All rights reserved.\n    </xsd:documentation>\n  </xsd:annotation>\n\n  <xsd:element name=\"purchaseOrder\" type=\"PurchaseOrderType\"/>\n\n  <xsd:element name=\"comment\" type=\"xsd:string\"/>\n\n  <xsd:complexType name=\"PurchaseOrderType\">\n    <xsd:sequence>\n      <xsd:element name=\"shipTo\" type=\"USAddress\"/>\n      <xsd:element name=\"billTo\" type=\"USAddress\"/>\n      <xsd:element ref=\"comment\" minOccurs=\"0\"/>\n      <xsd:element name=\"items\" type=\"Items\"/>\n    </xsd:sequence>\n    <xsd:attribute name=\"orderDate\" type=\"xsd:date\"/>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"USAddress\">\n    <xsd:sequence>\n      <xsd:element name=\"name\" type=\"xsd:string\"/>\n      <xsd:element name=\"street\" type=\"xsd:string\"/>\n      <xsd:element name=\"city\" type=\"xsd:string\"/>\n      <xsd:element name=\"state\" type=\"xsd:string\"/>\n      <xsd:element name=\"zip\" type=\"xsd:decimal\"/>\n    </xsd:sequence>\n    <xsd:attribute name=\"country\" type=\"xsd:NMTOKEN\" fixed=\"US\"/>\n  </xsd:complexType>\n\n  <xsd:complexType name=\"Items\">\n    <xsd:sequence>\n      <xsd:element name=\"item\" minOccurs=\"0\" maxOccurs=\"unbounded\">\n        <xsd:complexType>\n          <xsd:sequence>\n            <xsd:element name=\"productName\" type=\"xsd:string\"/>\n            <xsd:element name=\"quantity\">\n              <xsd:simpleType>\n                <xsd:restriction base=\"xsd:positiveInteger\">\n                  <xsd:maxExclusive value=\"100\"/>\n                </xsd:restriction>\n              </xsd:simpleType>\n            </xsd:element>\n            <xsd:element name=\"USPrice\" type=\"xsd:decimal\"/>\n            <xsd:element ref=\"comment\" minOccurs=\"0\"/>\n            <xsd:element name=\"shipDate\" type=\"xsd:date\" minOccurs=\"0\"/>\n          </xsd:sequence>\n          <xsd:attribute name=\"partNum\" type=\"SKU\" use=\"required\"/>\n        </xsd:complexType>\n      </xsd:element>\n    </xsd:sequence>\n  </xsd:complexType>\n\n  <xsd:simpleType name=\"SKU\">\n    <xsd:restriction base=\"xsd:string\">\n      <xsd:pattern value=\"\\d{3}-[A-Z]{2}\"/>\n    </xsd:restriction>\n  </xsd:simpleType>\n\n</xsd:schema>\n"

// RT resolves generated names back to their schema components.
var RT = vdom.MustRuntime(SchemaSource, normalize.SchemePaper)

// Document is the typed factory for documents of this schema (the
// paper's purchaseOrderDocument style object).
type Document struct{}

// NewDocument creates a typed document factory.
func NewDocument() *Document { return &Document{} }

// QuantityType is the simple type "QuantityType" (V-DOM interface QuantityTypeType).
type QuantityType string

// NewQuantityType validates a lexical value against the facets of "QuantityType".
func NewQuantityType(lexical string) (QuantityType, error) {
	if err := RT.CheckSimple("QuantityType", lexical); err != nil {
		return "", err
	}
	return QuantityType(lexical), nil
}

// MustQuantityType is NewQuantityType for values known to be valid; it panics on error.
func MustQuantityType(lexical string) QuantityType {
	v, err := NewQuantityType(lexical)
	if err != nil {
		panic(err)
	}
	return v
}

// SKU is the simple type "SKU" (V-DOM interface SKUType).
type SKU string

// NewSKU validates a lexical value against the facets of "SKU".
func NewSKU(lexical string) (SKU, error) {
	if err := RT.CheckSimple("SKU", lexical); err != nil {
		return "", err
	}
	return SKU(lexical), nil
}

// MustSKU is NewSKU for values known to be valid; it panics on error.
func MustSKU(lexical string) SKU {
	v, err := NewSKU(lexical)
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
	comment     *CommentElement
	shipDate    *ShipDateElement
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

// SetComment sets the optional comment member.
func (t *ItemTypeType) SetComment(v *CommentElement) *ItemTypeType {
	t.comment = v
	return t
}

// Comment returns the comment member (nil when unset).
func (t *ItemTypeType) Comment() *CommentElement { return t.comment }

// SetShipDate sets the optional shipDate member.
func (t *ItemTypeType) SetShipDate(v *ShipDateElement) *ItemTypeType {
	t.shipDate = v
	return t
}

// ShipDate returns the shipDate member (nil when unset).
func (t *ItemTypeType) ShipDate() *ShipDateElement { return t.shipDate }

// SetPartNum validates and sets the "partNum" attribute (type SKU).
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
	if t.comment != nil {
		if err := t.comment.WriteXML(w); err != nil {
			return err
		}
	}
	if t.shipDate != nil {
		if err := t.shipDate.WriteXML(w); err != nil {
			return err
		}
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
	if t.comment != nil {
		dumpChild(sb, depth+1, t.comment)
	}
	if t.shipDate != nil {
		dumpChild(sb, depth+1, t.shipDate)
	}
}

func (t *ItemTypeType) xsiName() string { return "" }

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
	shipTo        *ShipToElement
	billTo        *BillToElement
	comment       *CommentElement
	items         *ItemsElement
	attrOrderDate *string
}

// CreatePurchaseOrderTypeType constructs a PurchaseOrderTypeType with its required members;
// optional and repeated members are added with the Set/Add methods.
func (d *Document) CreatePurchaseOrderTypeType(shipTo *ShipToElement, billTo *BillToElement, items *ItemsElement) *PurchaseOrderTypeType {
	return &PurchaseOrderTypeType{shipTo: shipTo, billTo: billTo, items: items}
}

// ShipTo returns the required shipTo member.
func (t *PurchaseOrderTypeType) ShipTo() *ShipToElement { return t.shipTo }

// BillTo returns the required billTo member.
func (t *PurchaseOrderTypeType) BillTo() *BillToElement { return t.billTo }

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
	if t.shipTo == nil {
		return vdom.Required("PurchaseOrderTypeType", "shipTo")
	}
	if err := t.shipTo.WriteXML(w); err != nil {
		return err
	}
	if t.billTo == nil {
		return vdom.Required("PurchaseOrderTypeType", "billTo")
	}
	if err := t.billTo.WriteXML(w); err != nil {
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
	if t.shipTo != nil {
		dumpChild(sb, depth+1, t.shipTo)
	}
	if t.billTo != nil {
		dumpChild(sb, depth+1, t.billTo)
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

// ShipToElement represents element <shipTo> (V-DOM interface shipToElement); its content
// is complex type USAddressType.
type ShipToElement struct{ content *USAddressType }

// CreateShipTo wraps a USAddressType content value in the element.
func (d *Document) CreateShipTo(content *USAddressType) *ShipToElement {
	return &ShipToElement{content: content}
}

// Content returns the element's typed content.
func (e *ShipToElement) Content() *USAddressType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *ShipToElement) XMLQName() (string, string) { return "", "shipTo" }

// WriteXML implements vdom.ElementNode.
func (e *ShipToElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("shipToElement", "content")
	}
	w.Start("", "shipTo")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *ShipToElement) VDOMName() string { return "shipToElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *ShipToElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("shipToElement" + "\n")
	if e.content != nil {
		dumpChild(sb, depth+1, e.content)
	}
}

// BillToElement represents element <billTo> (V-DOM interface billToElement); its content
// is complex type USAddressType.
type BillToElement struct{ content *USAddressType }

// CreateBillTo wraps a USAddressType content value in the element.
func (d *Document) CreateBillTo(content *USAddressType) *BillToElement {
	return &BillToElement{content: content}
}

// Content returns the element's typed content.
func (e *BillToElement) Content() *USAddressType { return e.content }

// XMLQName implements vdom.NamedElement.
func (e *BillToElement) XMLQName() (string, string) { return "", "billTo" }

// WriteXML implements vdom.ElementNode.
func (e *BillToElement) WriteXML(w *vdom.Writer) error {
	if e.content == nil {
		return vdom.Required("billToElement", "content")
	}
	w.Start("", "billTo")
	defer w.End()
	return e.content.writeContent(w)
}

// VDOMName implements vdom.Node.
func (e *BillToElement) VDOMName() string { return "billToElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *BillToElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("billToElement" + "\n")
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
// is the simple type an anonymous restriction.
type QuantityElement struct{ value string }

// CreateQuantity validates the value and creates the element.
func (d *Document) CreateQuantity(value string) (*QuantityElement, error) {
	if err := RT.CheckSimple("QuantityType", value); err != nil {
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

// ShipDateElement represents element <shipDate> (V-DOM interface shipDateElement); its content
// is the simple type xsd:date.
type ShipDateElement struct{ value string }

// CreateShipDate validates the value and creates the element.
func (d *Document) CreateShipDate(value string) (*ShipDateElement, error) {
	if err := vdom.CheckBuiltin("date", value); err != nil {
		return nil, err
	}
	return &ShipDateElement{value: value}, nil
}

// MustShipDate panics on an invalid value.
func (d *Document) MustShipDate(value string) *ShipDateElement {
	e, err := d.CreateShipDate(value)
	if err != nil {
		panic(err)
	}
	return e
}

// Value returns the element's character content.
func (e *ShipDateElement) Value() string { return e.value }

// XMLQName implements vdom.NamedElement.
func (e *ShipDateElement) XMLQName() (string, string) { return "", "shipDate" }

// WriteXML implements vdom.ElementNode.
func (e *ShipDateElement) WriteXML(w *vdom.Writer) error {
	w.Start("", "shipDate")
	w.Text(e.value)
	w.End()
	return nil
}

// VDOMName implements vdom.Node.
func (e *ShipDateElement) VDOMName() string { return "shipDateElement" }

// DumpInto renders the typed node (paper Fig. 7 view).
func (e *ShipDateElement) DumpInto(sb *strings.Builder, depth int) {
	vdom.Indent(sb, depth)
	sb.WriteString("shipDateElement" + "\n")
	vdom.Indent(sb, depth+1)
	sb.WriteString("Text " + e.value + "\n")
}
