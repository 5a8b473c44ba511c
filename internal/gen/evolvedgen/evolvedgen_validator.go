// Code generated by vdomgen from the evolved purchase order schema (paper §3 choice example). DO NOT EDIT.
//
// Compiled validator (the codegen validator back end): every content
// model is unrolled into switch statements over its exported DFA,
// attribute sets and simple-type facet chains are straight-line checks,
// and Decode specializes the generic binder walk. Cold paths
// (xsi:type, identity constraints, pruned declarations, refused models)
// delegate to the interpreted walk through validator.Sink, so verdicts
// — including MatchError text — are byte-identical to
// validator.ValidateDocument over the RT schema.
package evolvedgen

import (
	"fmt"
	"strings"

	"repro/internal/bind"
	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/validator"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// gvElemDecl resolves a global element declaration from the runtime
// schema; the schema is embedded (SchemaSource), so the lookup cannot
// fail on an unmodified generated package.
func gvElemDecl(space, local string) *xsd.ElementDecl {
	d, ok := gvSchema.LookupElement(xsd.QName{Space: space, Local: local})
	if !ok {
		panic("codegen: schema drift: no global element " + xsd.QName{Space: space, Local: local}.String())
	}
	return d
}

// gvParticleElem walks group-particle indices to a local element
// declaration of a complex type's content model.
func gvParticleElem(p *xsd.Particle, path ...int) *xsd.ElementDecl {
	for _, i := range path {
		p = p.Group.Particles[i]
	}
	return p.Element
}

// gvVal parses one fixed/default lexical value at init; the ok flag
// mirrors the interpreted walk's silent skip of unparseable values.
func gvVal(parse func(string) (xsdtypes.Value, error), lexical string) (xsdtypes.Value, bool) {
	val, err := parse(lexical)
	return val, err == nil
}

// Schema-component handles, resolved once at init from the binding
// file's RT runtime (the schema is parsed exactly once per package).
var (
	gvSchema    = RT.Schema
	gvValidator = validator.New(gvSchema, nil)
	gvBinder    = bind.New(gvSchema, gvValidator)

	gvDecl0  = gvElemDecl("", "comment")           // element comment
	gvT0     = gvDecl0.Type.(*xsd.SimpleType)      // simple type {http://www.w3.org/2001/XMLSchema}string
	gvDecl1  = gvElemDecl("", "purchaseOrder")     // element purchaseOrder
	gvT1     = gvDecl1.Type.(*xsd.ComplexType)     // complex type PurchaseOrderType
	gvT2     = gvT1.AttributeUses[0].Decl.Type     // simple type {http://www.w3.org/2001/XMLSchema}date
	gvDecl2  = gvParticleElem(gvT1.Particle, 0, 0) // element singAddr
	gvT3     = gvDecl2.Type.(*xsd.ComplexType)     // complex type USAddress
	gvT4     = gvT3.AttributeUses[0].Decl.Type     // simple type {http://www.w3.org/2001/XMLSchema}NMTOKEN
	gvDecl3  = gvParticleElem(gvT3.Particle, 0)    // element name
	gvDecl4  = gvParticleElem(gvT3.Particle, 1)    // element street
	gvDecl5  = gvParticleElem(gvT3.Particle, 2)    // element city
	gvDecl6  = gvParticleElem(gvT3.Particle, 3)    // element state
	gvDecl7  = gvParticleElem(gvT3.Particle, 4)    // element zip
	gvT5     = gvDecl7.Type.(*xsd.SimpleType)      // simple type {http://www.w3.org/2001/XMLSchema}decimal
	gvDecl8  = gvParticleElem(gvT1.Particle, 0, 1) // element twoAddr
	gvT6     = gvDecl8.Type.(*xsd.ComplexType)     // complex type twoAddress
	gvDecl9  = gvParticleElem(gvT6.Particle, 0)    // element first
	gvDecl10 = gvParticleElem(gvT6.Particle, 1)    // element second
	gvDecl11 = gvParticleElem(gvT1.Particle, 2)    // element items
	gvT7     = gvDecl11.Type.(*xsd.ComplexType)    // complex type Items
	gvDecl12 = gvParticleElem(gvT7.Particle, 0)    // element item
	gvT8     = gvDecl12.Type.(*xsd.ComplexType)    // complex type ItemType
	gvDecl13 = gvParticleElem(gvT8.Particle, 0)    // element productName
	gvDecl14 = gvParticleElem(gvT8.Particle, 1)    // element quantity
	gvT9     = gvDecl14.Type.(*xsd.SimpleType)     // simple type {http://www.w3.org/2001/XMLSchema}positiveInteger
	gvDecl15 = gvParticleElem(gvT8.Particle, 2)    // element USPrice
)

// Precomputed fixed/default values (parsed once at init).
var (
	gvVal0, gvVal0OK = gvVal(gvParse4, "US")
)

// gvParse0 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}string (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse0(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSPreserve, lexical)
	val, err := gvT0.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// gvParse1 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}decimal (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse1(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSCollapse, lexical)
	val, err := gvT5.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// gvParse2 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}positiveInteger (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse2(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSCollapse, lexical)
	val, err := gvT9.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// gvParse3 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}date (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse3(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSCollapse, lexical)
	val, err := gvT2.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// gvParse4 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}NMTOKEN (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse4(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSCollapse, lexical)
	val, err := gvT4.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// DFA tables for the content model of PurchaseOrderType: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM0StepExp = [][]string{
		{"singAddr", "twoAddr"},
		{"comment", "items"},
		{"comment", "items"},
		{"items"},
		{"end of content"},
	}
	gvM0EndExp = [][]string{
		{"singAddr", "twoAddr"},
		{"comment", "items"},
		{"comment", "items"},
		{"items"},
		{"end of content"},
	}
	gvM0Accept = []bool{
		false,
		false,
		false,
		false,
		true,
	}
)

// gvM0Step takes one DFA transition (successor state, attributed leaf;
// -1, -1 on reject).
func gvM0Step(st int, space, local string) (int, int) {
	cls := -1
	switch space {
	case "":
		switch local {
		case "singAddr":
			cls = 0
		case "twoAddr":
			cls = 1
		case "comment":
			cls = 2
		case "items":
			cls = 3
		}
	}
	if cls < 0 {
		return -1, -1
	}
	switch st {
	case 0:
		switch cls {
		case 0:
			return 1, 0
		case 1:
			return 2, 1
		}
	case 1:
		switch cls {
		case 2:
			return 3, 2
		case 3:
			return 4, 3
		}
	case 2:
		switch cls {
		case 2:
			return 3, 2
		case 3:
			return 4, 3
		}
	case 3:
		switch cls {
		case 3:
			return 4, 3
		}
	}
	return -1, -1
}

// DFA tables for the content model of USAddress: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM1StepExp = [][]string{
		{"name"},
		{"street"},
		{"city"},
		{"state"},
		{"zip"},
		{"end of content"},
	}
	gvM1EndExp = [][]string{
		{"name"},
		{"street"},
		{"city"},
		{"state"},
		{"zip"},
		{"end of content"},
	}
	gvM1Accept = []bool{
		false,
		false,
		false,
		false,
		false,
		true,
	}
)

// gvM1Step takes one DFA transition (successor state, attributed leaf;
// -1, -1 on reject).
func gvM1Step(st int, space, local string) (int, int) {
	cls := -1
	switch space {
	case "":
		switch local {
		case "name":
			cls = 0
		case "street":
			cls = 1
		case "city":
			cls = 2
		case "state":
			cls = 3
		case "zip":
			cls = 4
		}
	}
	if cls < 0 {
		return -1, -1
	}
	switch st {
	case 0:
		switch cls {
		case 0:
			return 1, 0
		}
	case 1:
		switch cls {
		case 1:
			return 2, 1
		}
	case 2:
		switch cls {
		case 2:
			return 3, 2
		}
	case 3:
		switch cls {
		case 3:
			return 4, 3
		}
	case 4:
		switch cls {
		case 4:
			return 5, 4
		}
	}
	return -1, -1
}

// DFA tables for the content model of twoAddress: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM2StepExp = [][]string{
		{"first"},
		{"second"},
		{"end of content"},
	}
	gvM2EndExp = [][]string{
		{"first"},
		{"second"},
		{"end of content"},
	}
	gvM2Accept = []bool{
		false,
		false,
		true,
	}
)

// gvM2Step takes one DFA transition (successor state, attributed leaf;
// -1, -1 on reject).
func gvM2Step(st int, space, local string) (int, int) {
	cls := -1
	switch space {
	case "":
		switch local {
		case "first":
			cls = 0
		case "second":
			cls = 1
		}
	}
	if cls < 0 {
		return -1, -1
	}
	switch st {
	case 0:
		switch cls {
		case 0:
			return 1, 0
		}
	case 1:
		switch cls {
		case 1:
			return 2, 1
		}
	}
	return -1, -1
}

// DFA tables for the content model of Items: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM3StepExp = [][]string{
		{"end of content", "item"},
		{"item"},
	}
	gvM3EndExp = [][]string{
		{"item"},
		{"item"},
	}
	gvM3Accept = []bool{
		true,
		true,
	}
)

// gvM3Step takes one DFA transition (successor state, attributed leaf;
// -1, -1 on reject).
func gvM3Step(st int, space, local string) (int, int) {
	cls := -1
	switch space {
	case "":
		switch local {
		case "item":
			cls = 0
		}
	}
	if cls < 0 {
		return -1, -1
	}
	switch st {
	case 0:
		switch cls {
		case 0:
			return 1, 0
		}
	case 1:
		switch cls {
		case 0:
			return 1, 0
		}
	}
	return -1, -1
}

// DFA tables for the content model of ItemType: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM4StepExp = [][]string{
		{"productName"},
		{"quantity"},
		{"USPrice"},
		{"end of content"},
	}
	gvM4EndExp = [][]string{
		{"productName"},
		{"quantity"},
		{"USPrice"},
		{"end of content"},
	}
	gvM4Accept = []bool{
		false,
		false,
		false,
		true,
	}
)

// gvM4Step takes one DFA transition (successor state, attributed leaf;
// -1, -1 on reject).
func gvM4Step(st int, space, local string) (int, int) {
	cls := -1
	switch space {
	case "":
		switch local {
		case "productName":
			cls = 0
		case "quantity":
			cls = 1
		case "USPrice":
			cls = 2
		}
	}
	if cls < 0 {
		return -1, -1
	}
	switch st {
	case 0:
		switch cls {
		case 0:
			return 1, 0
		}
	case 1:
		switch cls {
		case 1:
			return 2, 1
		}
	case 2:
		switch cls {
		case 2:
			return 3, 2
		}
	}
	return -1, -1
}

// Validate checks a whole document against the schema. The verdict —
// every violation path and message — is byte-identical to
// validator.ValidateDocument over the RT schema.
func Validate(doc *dom.Document) *validator.Result {
	s := validator.NewSink(gvValidator)
	root := doc.DocumentElement()
	if root == nil {
		s.Violate("/", "document has no root element")
		return s.Result()
	}
	switch root.NamespaceURI() {
	case "":
		switch root.LocalName() {
		case "comment":
			gvElemCommentElement(s, root, "/"+root.TagName())
			s.CheckIDRefs()
			return s.Result()
		case "purchaseOrder":
			gvElemPurchaseOrderElement(s, root, "/"+root.TagName())
			s.CheckIDRefs()
			return s.Result()
		}
	}
	s.Violate("/"+root.TagName(), fmt.Sprintf("no global declaration for root element %s", xsd.QName{Space: root.NamespaceURI(), Local: root.LocalName()}))
	return s.Result()
}

// ValidateBytes parses and validates a serialized document in one
// step, like validator.ValidateBytes.
func ValidateBytes(src []byte) (*dom.Document, *validator.Result) {
	doc, err := dom.Parse(src)
	if err != nil {
		return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: err.Error()}}}
	}
	return doc, Validate(doc)
}

// gvElemCommentElement validates one element governed by comment.
func gvElemCommentElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl0, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvContentCommentElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentCommentElement checks the character content of comment.
func gvContentCommentElement(s *validator.Sink, el *dom.Element, path string) {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			s.Violate(path, "element content is not allowed in a simple-type element")
			return
		}
	}
	text := el.TextContent()
	_, err := gvParse0(text)
	if err != nil {
		s.Violate(path, err.Error())
		return
	}
}

// gvElemPurchaseOrderElement validates one element governed by purchaseOrder.
func gvElemPurchaseOrderElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl1, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvTypePurchaseOrderTypeType(s, el, path)
}

// gvElemSingAddrElement validates one element governed by singAddr.
func gvElemSingAddrElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl2, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvTypeUSAddressType(s, el, path)
}

// gvElemNameElement validates one element governed by name.
func gvElemNameElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl3, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvContentNameElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentNameElement checks the character content of name.
func gvContentNameElement(s *validator.Sink, el *dom.Element, path string) {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			s.Violate(path, "element content is not allowed in a simple-type element")
			return
		}
	}
	text := el.TextContent()
	_, err := gvParse0(text)
	if err != nil {
		s.Violate(path, err.Error())
		return
	}
}

// gvElemStreetElement validates one element governed by street.
func gvElemStreetElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl4, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvContentStreetElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentStreetElement checks the character content of street.
func gvContentStreetElement(s *validator.Sink, el *dom.Element, path string) {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			s.Violate(path, "element content is not allowed in a simple-type element")
			return
		}
	}
	text := el.TextContent()
	_, err := gvParse0(text)
	if err != nil {
		s.Violate(path, err.Error())
		return
	}
}

// gvElemCityElement validates one element governed by city.
func gvElemCityElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl5, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvContentCityElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentCityElement checks the character content of city.
func gvContentCityElement(s *validator.Sink, el *dom.Element, path string) {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			s.Violate(path, "element content is not allowed in a simple-type element")
			return
		}
	}
	text := el.TextContent()
	_, err := gvParse0(text)
	if err != nil {
		s.Violate(path, err.Error())
		return
	}
}

// gvElemStateElement validates one element governed by state.
func gvElemStateElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl6, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvContentStateElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentStateElement checks the character content of state.
func gvContentStateElement(s *validator.Sink, el *dom.Element, path string) {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			s.Violate(path, "element content is not allowed in a simple-type element")
			return
		}
	}
	text := el.TextContent()
	_, err := gvParse0(text)
	if err != nil {
		s.Violate(path, err.Error())
		return
	}
}

// gvElemZipElement validates one element governed by zip.
func gvElemZipElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl7, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvContentZipElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentZipElement checks the character content of zip.
func gvContentZipElement(s *validator.Sink, el *dom.Element, path string) {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			s.Violate(path, "element content is not allowed in a simple-type element")
			return
		}
	}
	text := el.TextContent()
	_, err := gvParse1(text)
	if err != nil {
		s.Violate(path, err.Error())
		return
	}
}

// gvElemTwoAddrElement validates one element governed by twoAddr.
func gvElemTwoAddrElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl8, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvTypeTwoAddressType(s, el, path)
}

// gvElemFirstElement validates one element governed by first.
func gvElemFirstElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl9, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvTypeUSAddressType(s, el, path)
}

// gvElemSecondElement validates one element governed by second.
func gvElemSecondElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl10, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvTypeUSAddressType(s, el, path)
}

// gvElemItemsElement validates one element governed by items.
func gvElemItemsElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl11, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvTypeItemsType(s, el, path)
}

// gvElemItemElement validates one element governed by item.
func gvElemItemElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl12, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvTypeItemTypeType(s, el, path)
}

// gvElemProductNameElement validates one element governed by productName.
func gvElemProductNameElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl13, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvContentProductNameElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentProductNameElement checks the character content of productName.
func gvContentProductNameElement(s *validator.Sink, el *dom.Element, path string) {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			s.Violate(path, "element content is not allowed in a simple-type element")
			return
		}
	}
	text := el.TextContent()
	_, err := gvParse0(text)
	if err != nil {
		s.Violate(path, err.Error())
		return
	}
}

// gvElemQuantityElement validates one element governed by quantity.
func gvElemQuantityElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl14, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvContentQuantityElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentQuantityElement checks the character content of quantity.
func gvContentQuantityElement(s *validator.Sink, el *dom.Element, path string) {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			s.Violate(path, "element content is not allowed in a simple-type element")
			return
		}
	}
	text := el.TextContent()
	_, err := gvParse2(text)
	if err != nil {
		s.Violate(path, err.Error())
		return
	}
}

// gvElemUSPriceElement validates one element governed by USPrice.
func gvElemUSPriceElement(s *validator.Sink, el *dom.Element, path string) {
	if s.Full() {
		return
	}
	// xsi:type substitutions take the interpreted path (shared run state).
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		s.Element(el, gvDecl15, path)
		return
	}
	if el.GetAttributeNS(xsd.XSINamespace, "nil") != "" {
		s.Violate(path, "xsi:nil on a non-nillable element")
		return
	}
	gvContentUSPriceElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentUSPriceElement checks the character content of USPrice.
func gvContentUSPriceElement(s *validator.Sink, el *dom.Element, path string) {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			s.Violate(path, "element content is not allowed in a simple-type element")
			return
		}
	}
	text := el.TextContent()
	_, err := gvParse1(text)
	if err != nil {
		s.Violate(path, err.Error())
		return
	}
}

// gvTypePurchaseOrderTypeType validates attributes and content of PurchaseOrderType.
func gvTypePurchaseOrderTypeType(s *validator.Sink, el *dom.Element, path string) {
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "orderDate":
				handled = true
				if _, err := gvParse3(a.Value()); err != nil {
					s.Violate(path, fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
				}
			}
		}
		if !handled {
			s.Violate(path, fmt.Sprintf("attribute %q is not declared for this element", a.NodeName()))
		}
	}
	var children []*dom.Element
	for _, c := range el.ChildNodes() {
		switch x := c.(type) {
		case *dom.Element:
			children = append(children, x)
		case *dom.Text:
			if strings.TrimSpace(x.Data) != "" {
				s.Violate(path, fmt.Sprintf("character data %q is not allowed in element-only content", validator.Snippet(x.Data)))
			}
		case *dom.CDATASection:
			s.Violate(path, "character data is not allowed in element-only content")
		}
	}
	st := 0
	leaves := make([]int, len(children))
	for i, child := range children {
		next, leaf := gvM0Step(st, child.NamespaceURI(), child.LocalName())
		if next < 0 {
			s.Violate(validator.ChildPath(path, child), (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: child.NamespaceURI(), Local: child.LocalName()}, Expected: gvM0StepExp[st]}).Error())
			return
		}
		leaves[i] = leaf
		st = next
	}
	if len(children) == 0 {
		s.Violate(path, (&contentmodel.MatchError{Index: 0, Premature: true, Expected: gvM0EndExp[0]}).Error())
		return
	}
	if !gvM0Accept[st] {
		s.Violate(path, (&contentmodel.MatchError{Index: len(children), Premature: true, Expected: gvM0EndExp[st]}).Error())
		return
	}
	counts := map[string]int{}
	for i, child := range children {
		cpath := validator.ChildPathIndexed(path, child, counts)
		switch leaves[i] {
		case 0:
			gvElemSingAddrElement(s, child, cpath)
		case 1:
			gvElemTwoAddrElement(s, child, cpath)
		case 2:
			gvElemCommentElement(s, child, cpath)
		case 3:
			gvElemItemsElement(s, child, cpath)
		}
	}
}

// gvTypeUSAddressType validates attributes and content of USAddress.
func gvTypeUSAddressType(s *validator.Sink, el *dom.Element, path string) {
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "country":
				handled = true
				val, err := gvParse4(a.Value())
				if err != nil {
					s.Violate(path, fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
				} else {
					if gvVal0OK && !val.Equal(gvVal0) {
						s.Violate(path, fmt.Sprintf("attribute %q must have the fixed value %q", a.NodeName(), "US"))
					}
				}
			}
		}
		if !handled {
			s.Violate(path, fmt.Sprintf("attribute %q is not declared for this element", a.NodeName()))
		}
	}
	var children []*dom.Element
	for _, c := range el.ChildNodes() {
		switch x := c.(type) {
		case *dom.Element:
			children = append(children, x)
		case *dom.Text:
			if strings.TrimSpace(x.Data) != "" {
				s.Violate(path, fmt.Sprintf("character data %q is not allowed in element-only content", validator.Snippet(x.Data)))
			}
		case *dom.CDATASection:
			s.Violate(path, "character data is not allowed in element-only content")
		}
	}
	st := 0
	leaves := make([]int, len(children))
	for i, child := range children {
		next, leaf := gvM1Step(st, child.NamespaceURI(), child.LocalName())
		if next < 0 {
			s.Violate(validator.ChildPath(path, child), (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: child.NamespaceURI(), Local: child.LocalName()}, Expected: gvM1StepExp[st]}).Error())
			return
		}
		leaves[i] = leaf
		st = next
	}
	if len(children) == 0 {
		s.Violate(path, (&contentmodel.MatchError{Index: 0, Premature: true, Expected: gvM1EndExp[0]}).Error())
		return
	}
	if !gvM1Accept[st] {
		s.Violate(path, (&contentmodel.MatchError{Index: len(children), Premature: true, Expected: gvM1EndExp[st]}).Error())
		return
	}
	counts := map[string]int{}
	for i, child := range children {
		cpath := validator.ChildPathIndexed(path, child, counts)
		switch leaves[i] {
		case 0:
			gvElemNameElement(s, child, cpath)
		case 1:
			gvElemStreetElement(s, child, cpath)
		case 2:
			gvElemCityElement(s, child, cpath)
		case 3:
			gvElemStateElement(s, child, cpath)
		case 4:
			gvElemZipElement(s, child, cpath)
		}
	}
}

// gvTypeTwoAddressType validates attributes and content of twoAddress.
func gvTypeTwoAddressType(s *validator.Sink, el *dom.Element, path string) {
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not declared for this element", a.NodeName()))
	}
	var children []*dom.Element
	for _, c := range el.ChildNodes() {
		switch x := c.(type) {
		case *dom.Element:
			children = append(children, x)
		case *dom.Text:
			if strings.TrimSpace(x.Data) != "" {
				s.Violate(path, fmt.Sprintf("character data %q is not allowed in element-only content", validator.Snippet(x.Data)))
			}
		case *dom.CDATASection:
			s.Violate(path, "character data is not allowed in element-only content")
		}
	}
	st := 0
	leaves := make([]int, len(children))
	for i, child := range children {
		next, leaf := gvM2Step(st, child.NamespaceURI(), child.LocalName())
		if next < 0 {
			s.Violate(validator.ChildPath(path, child), (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: child.NamespaceURI(), Local: child.LocalName()}, Expected: gvM2StepExp[st]}).Error())
			return
		}
		leaves[i] = leaf
		st = next
	}
	if len(children) == 0 {
		s.Violate(path, (&contentmodel.MatchError{Index: 0, Premature: true, Expected: gvM2EndExp[0]}).Error())
		return
	}
	if !gvM2Accept[st] {
		s.Violate(path, (&contentmodel.MatchError{Index: len(children), Premature: true, Expected: gvM2EndExp[st]}).Error())
		return
	}
	counts := map[string]int{}
	for i, child := range children {
		cpath := validator.ChildPathIndexed(path, child, counts)
		switch leaves[i] {
		case 0:
			gvElemFirstElement(s, child, cpath)
		case 1:
			gvElemSecondElement(s, child, cpath)
		}
	}
}

// gvTypeItemsType validates attributes and content of Items.
func gvTypeItemsType(s *validator.Sink, el *dom.Element, path string) {
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not declared for this element", a.NodeName()))
	}
	var children []*dom.Element
	for _, c := range el.ChildNodes() {
		switch x := c.(type) {
		case *dom.Element:
			children = append(children, x)
		case *dom.Text:
			if strings.TrimSpace(x.Data) != "" {
				s.Violate(path, fmt.Sprintf("character data %q is not allowed in element-only content", validator.Snippet(x.Data)))
			}
		case *dom.CDATASection:
			s.Violate(path, "character data is not allowed in element-only content")
		}
	}
	st := 0
	leaves := make([]int, len(children))
	for i, child := range children {
		next, leaf := gvM3Step(st, child.NamespaceURI(), child.LocalName())
		if next < 0 {
			s.Violate(validator.ChildPath(path, child), (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: child.NamespaceURI(), Local: child.LocalName()}, Expected: gvM3StepExp[st]}).Error())
			return
		}
		leaves[i] = leaf
		st = next
	}
	if len(children) > 0 && !gvM3Accept[st] {
		s.Violate(path, (&contentmodel.MatchError{Index: len(children), Premature: true, Expected: gvM3EndExp[st]}).Error())
		return
	}
	counts := map[string]int{}
	for i, child := range children {
		cpath := validator.ChildPathIndexed(path, child, counts)
		switch leaves[i] {
		case 0:
			gvElemItemElement(s, child, cpath)
		}
	}
}

// gvTypeItemTypeType validates attributes and content of ItemType.
func gvTypeItemTypeType(s *validator.Sink, el *dom.Element, path string) {
	seen0 := false
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "partNum":
				handled = true
				seen0 = true
				if _, err := gvParse0(a.Value()); err != nil {
					s.Violate(path, fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
				}
			}
		}
		if !handled {
			s.Violate(path, fmt.Sprintf("attribute %q is not declared for this element", a.NodeName()))
		}
	}
	if !seen0 {
		s.Violate(path, "required attribute \"partNum\" is missing")
	}
	var children []*dom.Element
	for _, c := range el.ChildNodes() {
		switch x := c.(type) {
		case *dom.Element:
			children = append(children, x)
		case *dom.Text:
			if strings.TrimSpace(x.Data) != "" {
				s.Violate(path, fmt.Sprintf("character data %q is not allowed in element-only content", validator.Snippet(x.Data)))
			}
		case *dom.CDATASection:
			s.Violate(path, "character data is not allowed in element-only content")
		}
	}
	st := 0
	leaves := make([]int, len(children))
	for i, child := range children {
		next, leaf := gvM4Step(st, child.NamespaceURI(), child.LocalName())
		if next < 0 {
			s.Violate(validator.ChildPath(path, child), (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: child.NamespaceURI(), Local: child.LocalName()}, Expected: gvM4StepExp[st]}).Error())
			return
		}
		leaves[i] = leaf
		st = next
	}
	if len(children) == 0 {
		s.Violate(path, (&contentmodel.MatchError{Index: 0, Premature: true, Expected: gvM4EndExp[0]}).Error())
		return
	}
	if !gvM4Accept[st] {
		s.Violate(path, (&contentmodel.MatchError{Index: len(children), Premature: true, Expected: gvM4EndExp[st]}).Error())
		return
	}
	counts := map[string]int{}
	for i, child := range children {
		cpath := validator.ChildPathIndexed(path, child, counts)
		switch leaves[i] {
		case 0:
			gvElemProductNameElement(s, child, cpath)
		case 1:
			gvElemQuantityElement(s, child, cpath)
		case 2:
			gvElemUSPriceElement(s, child, cpath)
		}
	}
}

// Decode validates the document and, when valid, decodes it into a
// typed value on the specialized walk — same Value tree (and same
// JSON) as the generic Binder.
func Decode(doc *dom.Document) (*bind.Value, *validator.Result) {
	res := Validate(doc)
	if !res.OK() {
		return nil, res
	}
	root := doc.DocumentElement()
	if root == nil {
		return nil, res
	}
	switch root.NamespaceURI() {
	case "":
		switch root.LocalName() {
		case "comment":
			val, err := gvDecCommentElement(root, false)
			if err != nil {
				return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "bind: " + err.Error()}}}
			}
			return val, res
		case "purchaseOrder":
			val, err := gvDecPurchaseOrderElement(root, false)
			if err != nil {
				return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "bind: " + err.Error()}}}
			}
			return val, res
		}
	}
	return nil, res
}

// DecodeBytes parses, validates and decodes a serialized document.
func DecodeBytes(src []byte) (*bind.Value, *validator.Result) {
	doc, err := dom.Parse(src)
	if err != nil {
		return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: err.Error()}}}
	}
	return Decode(doc)
}

// JSON renders a decoded value as canonical JSON (the binder's rules).
func JSON(v *bind.Value) []byte {
	return gvBinder.JSON(v)
}

// gvDecCommentElement decodes one validated element governed by comment.
func gvDecCommentElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl0, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT0)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	text := el.TextContent()
	val, err := gvParse0(text)
	if err != nil {
		return nil, err
	}
	v.Kind = bind.KindSimple
	v.Simple = val
	return v, nil
}

// gvDecPurchaseOrderElement decodes one validated element governed by purchaseOrder.
func gvDecPurchaseOrderElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl1, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT1)
	v.Attrs = gvDecAttrsPurchaseOrderTypeType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyPurchaseOrderTypeType(v, el)
}

// gvDecSingAddrElement decodes one validated element governed by singAddr.
func gvDecSingAddrElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl2, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT3)
	v.Attrs = gvDecAttrsUSAddressType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyUSAddressType(v, el)
}

// gvDecNameElement decodes one validated element governed by name.
func gvDecNameElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl3, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT0)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	text := el.TextContent()
	val, err := gvParse0(text)
	if err != nil {
		return nil, err
	}
	v.Kind = bind.KindSimple
	v.Simple = val
	return v, nil
}

// gvDecStreetElement decodes one validated element governed by street.
func gvDecStreetElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl4, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT0)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	text := el.TextContent()
	val, err := gvParse0(text)
	if err != nil {
		return nil, err
	}
	v.Kind = bind.KindSimple
	v.Simple = val
	return v, nil
}

// gvDecCityElement decodes one validated element governed by city.
func gvDecCityElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl5, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT0)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	text := el.TextContent()
	val, err := gvParse0(text)
	if err != nil {
		return nil, err
	}
	v.Kind = bind.KindSimple
	v.Simple = val
	return v, nil
}

// gvDecStateElement decodes one validated element governed by state.
func gvDecStateElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl6, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT0)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	text := el.TextContent()
	val, err := gvParse0(text)
	if err != nil {
		return nil, err
	}
	v.Kind = bind.KindSimple
	v.Simple = val
	return v, nil
}

// gvDecZipElement decodes one validated element governed by zip.
func gvDecZipElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl7, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT5)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	text := el.TextContent()
	val, err := gvParse1(text)
	if err != nil {
		return nil, err
	}
	v.Kind = bind.KindSimple
	v.Simple = val
	return v, nil
}

// gvDecTwoAddrElement decodes one validated element governed by twoAddr.
func gvDecTwoAddrElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl8, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT6)
	v.Attrs = gvDecAttrsTwoAddressType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyTwoAddressType(v, el)
}

// gvDecFirstElement decodes one validated element governed by first.
func gvDecFirstElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl9, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT3)
	v.Attrs = gvDecAttrsUSAddressType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyUSAddressType(v, el)
}

// gvDecSecondElement decodes one validated element governed by second.
func gvDecSecondElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl10, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT3)
	v.Attrs = gvDecAttrsUSAddressType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyUSAddressType(v, el)
}

// gvDecItemsElement decodes one validated element governed by items.
func gvDecItemsElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl11, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT7)
	v.Attrs = gvDecAttrsItemsType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyItemsType(v, el)
}

// gvDecItemElement decodes one validated element governed by item.
func gvDecItemElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl12, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT8)
	v.Attrs = gvDecAttrsItemTypeType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyItemTypeType(v, el)
}

// gvDecProductNameElement decodes one validated element governed by productName.
func gvDecProductNameElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl13, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT0)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	text := el.TextContent()
	val, err := gvParse0(text)
	if err != nil {
		return nil, err
	}
	v.Kind = bind.KindSimple
	v.Simple = val
	return v, nil
}

// gvDecQuantityElement decodes one validated element governed by quantity.
func gvDecQuantityElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl14, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT9)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	text := el.TextContent()
	val, err := gvParse2(text)
	if err != nil {
		return nil, err
	}
	v.Kind = bind.KindSimple
	v.Simple = val
	return v, nil
}

// gvDecUSPriceElement decodes one validated element governed by USPrice.
func gvDecUSPriceElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl15, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT5)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	text := el.TextContent()
	val, err := gvParse1(text)
	if err != nil {
		return nil, err
	}
	v.Kind = bind.KindSimple
	v.Simple = val
	return v, nil
}

// gvDecAttrsPurchaseOrderTypeType types the attributes of PurchaseOrderType, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsPurchaseOrderTypeType(el *dom.Element) []bind.Attr {
	var out []bind.Attr
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		name := xsd.QName{Space: a.Name().Space, Local: a.Name().Local}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "orderDate":
				handled = true
				if val, err := gvParse3(a.Value()); err == nil {
					out = append(out, bind.Attr{Name: name, Value: val})
				} else {
					out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
				}
			}
		}
		if !handled {
			out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
		}
	}
	return out
}

// gvDecBodyPurchaseOrderTypeType decodes the child content of PurchaseOrderType.
func gvDecBodyPurchaseOrderTypeType(v *bind.Value, el *dom.Element) error {
	kids := el.ChildNodes()
	var elems []*dom.Element
	for _, k := range kids {
		if e, ok := k.(*dom.Element); ok {
			elems = append(elems, e)
		}
	}
	st := 0
	leaves := make([]int, len(elems))
	for i, e := range elems {
		next, leaf := gvM0Step(st, e.NamespaceURI(), e.LocalName())
		if next < 0 {
			return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: e.NamespaceURI(), Local: e.LocalName()}, Expected: gvM0StepExp[st]}).Error())
		}
		leaves[i] = leaf
		st = next
	}
	if len(elems) == 0 {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: 0, Premature: true, Expected: gvM0EndExp[0]}).Error())
	}
	if !gvM0Accept[st] {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: len(elems), Premature: true, Expected: gvM0EndExp[st]}).Error())
	}
	vals := make([]*bind.Value, len(elems))
	for i, e := range elems {
		var cv *bind.Value
		var err error
		switch leaves[i] {
		case 0:
			cv, err = gvDecSingAddrElement(e, false)
		case 1:
			cv, err = gvDecTwoAddrElement(e, false)
		case 2:
			cv, err = gvDecCommentElement(e, false)
		case 3:
			cv, err = gvDecItemsElement(e, false)
		}
		if err != nil {
			return err
		}
		vals[i] = cv
	}
	v.Kind = bind.KindStruct
	v.Children = vals
	return nil
}

// gvDecAttrsUSAddressType types the attributes of USAddress, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsUSAddressType(el *dom.Element) []bind.Attr {
	var out []bind.Attr
	seen0 := false
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		name := xsd.QName{Space: a.Name().Space, Local: a.Name().Local}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "country":
				handled = true
				seen0 = true
				if val, err := gvParse4(a.Value()); err == nil {
					out = append(out, bind.Attr{Name: name, Value: val})
				} else {
					out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
				}
			}
		}
		if !handled {
			out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
		}
	}
	if !seen0 && gvVal0OK {
		out = append(out, bind.Attr{Name: xsd.QName{Space: "", Local: "country"}, Value: gvVal0})
	}
	return out
}

// gvDecBodyUSAddressType decodes the child content of USAddress.
func gvDecBodyUSAddressType(v *bind.Value, el *dom.Element) error {
	kids := el.ChildNodes()
	var elems []*dom.Element
	for _, k := range kids {
		if e, ok := k.(*dom.Element); ok {
			elems = append(elems, e)
		}
	}
	st := 0
	leaves := make([]int, len(elems))
	for i, e := range elems {
		next, leaf := gvM1Step(st, e.NamespaceURI(), e.LocalName())
		if next < 0 {
			return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: e.NamespaceURI(), Local: e.LocalName()}, Expected: gvM1StepExp[st]}).Error())
		}
		leaves[i] = leaf
		st = next
	}
	if len(elems) == 0 {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: 0, Premature: true, Expected: gvM1EndExp[0]}).Error())
	}
	if !gvM1Accept[st] {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: len(elems), Premature: true, Expected: gvM1EndExp[st]}).Error())
	}
	vals := make([]*bind.Value, len(elems))
	for i, e := range elems {
		var cv *bind.Value
		var err error
		switch leaves[i] {
		case 0:
			cv, err = gvDecNameElement(e, false)
		case 1:
			cv, err = gvDecStreetElement(e, false)
		case 2:
			cv, err = gvDecCityElement(e, false)
		case 3:
			cv, err = gvDecStateElement(e, false)
		case 4:
			cv, err = gvDecZipElement(e, false)
		}
		if err != nil {
			return err
		}
		vals[i] = cv
	}
	v.Kind = bind.KindStruct
	v.Children = vals
	return nil
}

// gvDecAttrsTwoAddressType types the attributes of twoAddress, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsTwoAddressType(el *dom.Element) []bind.Attr {
	var out []bind.Attr
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		name := xsd.QName{Space: a.Name().Space, Local: a.Name().Local}
		out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
	}
	return out
}

// gvDecBodyTwoAddressType decodes the child content of twoAddress.
func gvDecBodyTwoAddressType(v *bind.Value, el *dom.Element) error {
	kids := el.ChildNodes()
	var elems []*dom.Element
	for _, k := range kids {
		if e, ok := k.(*dom.Element); ok {
			elems = append(elems, e)
		}
	}
	st := 0
	leaves := make([]int, len(elems))
	for i, e := range elems {
		next, leaf := gvM2Step(st, e.NamespaceURI(), e.LocalName())
		if next < 0 {
			return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: e.NamespaceURI(), Local: e.LocalName()}, Expected: gvM2StepExp[st]}).Error())
		}
		leaves[i] = leaf
		st = next
	}
	if len(elems) == 0 {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: 0, Premature: true, Expected: gvM2EndExp[0]}).Error())
	}
	if !gvM2Accept[st] {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: len(elems), Premature: true, Expected: gvM2EndExp[st]}).Error())
	}
	vals := make([]*bind.Value, len(elems))
	for i, e := range elems {
		var cv *bind.Value
		var err error
		switch leaves[i] {
		case 0:
			cv, err = gvDecFirstElement(e, false)
		case 1:
			cv, err = gvDecSecondElement(e, false)
		}
		if err != nil {
			return err
		}
		vals[i] = cv
	}
	v.Kind = bind.KindStruct
	v.Children = vals
	return nil
}

// gvDecAttrsItemsType types the attributes of Items, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsItemsType(el *dom.Element) []bind.Attr {
	var out []bind.Attr
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		name := xsd.QName{Space: a.Name().Space, Local: a.Name().Local}
		out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
	}
	return out
}

// gvDecBodyItemsType decodes the child content of Items.
func gvDecBodyItemsType(v *bind.Value, el *dom.Element) error {
	kids := el.ChildNodes()
	var elems []*dom.Element
	for _, k := range kids {
		if e, ok := k.(*dom.Element); ok {
			elems = append(elems, e)
		}
	}
	st := 0
	leaves := make([]int, len(elems))
	for i, e := range elems {
		next, leaf := gvM3Step(st, e.NamespaceURI(), e.LocalName())
		if next < 0 {
			return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: e.NamespaceURI(), Local: e.LocalName()}, Expected: gvM3StepExp[st]}).Error())
		}
		leaves[i] = leaf
		st = next
	}
	if len(elems) > 0 && !gvM3Accept[st] {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: len(elems), Premature: true, Expected: gvM3EndExp[st]}).Error())
	}
	vals := make([]*bind.Value, len(elems))
	for i, e := range elems {
		var cv *bind.Value
		var err error
		switch leaves[i] {
		case 0:
			cv, err = gvDecItemElement(e, false)
		}
		if err != nil {
			return err
		}
		vals[i] = cv
	}
	v.Kind = bind.KindStruct
	v.Children = vals
	return nil
}

// gvDecAttrsItemTypeType types the attributes of ItemType, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsItemTypeType(el *dom.Element) []bind.Attr {
	var out []bind.Attr
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		name := xsd.QName{Space: a.Name().Space, Local: a.Name().Local}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "partNum":
				handled = true
				if val, err := gvParse0(a.Value()); err == nil {
					out = append(out, bind.Attr{Name: name, Value: val})
				} else {
					out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
				}
			}
		}
		if !handled {
			out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
		}
	}
	return out
}

// gvDecBodyItemTypeType decodes the child content of ItemType.
func gvDecBodyItemTypeType(v *bind.Value, el *dom.Element) error {
	kids := el.ChildNodes()
	var elems []*dom.Element
	for _, k := range kids {
		if e, ok := k.(*dom.Element); ok {
			elems = append(elems, e)
		}
	}
	st := 0
	leaves := make([]int, len(elems))
	for i, e := range elems {
		next, leaf := gvM4Step(st, e.NamespaceURI(), e.LocalName())
		if next < 0 {
			return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: e.NamespaceURI(), Local: e.LocalName()}, Expected: gvM4StepExp[st]}).Error())
		}
		leaves[i] = leaf
		st = next
	}
	if len(elems) == 0 {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: 0, Premature: true, Expected: gvM4EndExp[0]}).Error())
	}
	if !gvM4Accept[st] {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: len(elems), Premature: true, Expected: gvM4EndExp[st]}).Error())
	}
	vals := make([]*bind.Value, len(elems))
	for i, e := range elems {
		var cv *bind.Value
		var err error
		switch leaves[i] {
		case 0:
			cv, err = gvDecProductNameElement(e, false)
		case 1:
			cv, err = gvDecQuantityElement(e, false)
		case 2:
			cv, err = gvDecUSPriceElement(e, false)
		}
		if err != nil {
			return err
		}
		vals[i] = cv
	}
	v.Kind = bind.KindStruct
	v.Children = vals
	return nil
}

// Marshal serializes a value as schema-valid XML (the binder's rules
// and error surface).
func Marshal(v *bind.Value) ([]byte, error) {
	return gvBinder.Marshal(v)
}
