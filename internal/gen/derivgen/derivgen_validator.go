// Code generated by vdomgen from the address derivation schema (paper §3 extension/substitution examples). DO NOT EDIT.
//
// Compiled validator (the codegen validator back end): every content
// model is unrolled into switch statements over its exported DFA,
// attribute sets and simple-type facet chains are straight-line checks,
// and Decode specializes the generic binder walk. Cold paths
// (xsi:type, identity constraints, pruned declarations, refused models)
// delegate to the interpreted walk through validator.Sink, so verdicts
// — including MatchError text — are byte-identical to
// validator.ValidateDocument over the RT schema.
package derivgen

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

// Schema-component handles, resolved once at init from the binding
// file's RT runtime (the schema is parsed exactly once per package).
var (
	gvSchema    = RT.Schema
	gvValidator = validator.New(gvSchema, nil)
	gvBinder    = bind.New(gvSchema, gvValidator)

	gvDecl0  = gvElemDecl("", "address")         // element address
	gvT0     = gvDecl0.Type.(*xsd.ComplexType)   // complex type Address
	gvDecl1  = gvParticleElem(gvT0.Particle, 0)  // element name
	gvT1     = gvDecl1.Type.(*xsd.SimpleType)    // simple type {http://www.w3.org/2001/XMLSchema}string
	gvDecl2  = gvParticleElem(gvT0.Particle, 1)  // element street
	gvDecl3  = gvParticleElem(gvT0.Particle, 2)  // element city
	gvDecl4  = gvElemDecl("", "comment")         // element comment
	gvDecl5  = gvElemDecl("", "commentBlock")    // element commentBlock
	gvT2     = gvDecl5.Type.(*xsd.ComplexType)   // complex type CommentBlock
	gvDecl6  = gvElemDecl("", "customerComment") // element customerComment
	gvDecl7  = gvElemDecl("", "note")            // element note
	gvDecl8  = gvElemDecl("", "noteBlock")       // element noteBlock
	gvT3     = gvDecl8.Type.(*xsd.ComplexType)   // complex type NoteBlock
	gvDecl9  = gvElemDecl("", "shipComment")     // element shipComment
	gvDecl10 = gvElemDecl("", "shipNote")        // element shipNote
)

// gvParse0 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}string (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse0(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSPreserve, lexical)
	val, err := gvT1.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// DFA tables for the content model of Address: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM0StepExp = [][]string{
		{"name"},
		{"street"},
		{"city"},
		{"end of content"},
	}
	gvM0EndExp = [][]string{
		{"name"},
		{"street"},
		{"city"},
		{"end of content"},
	}
	gvM0Accept = []bool{
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
		case "name":
			cls = 0
		case "street":
			cls = 1
		case "city":
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

// DFA tables for the content model of CommentBlock: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM1StepExp = [][]string{
		{"comment|customerComment|shipComment", "end of content"},
		{"comment|customerComment|shipComment"},
	}
	gvM1EndExp = [][]string{
		{"comment|customerComment|shipComment"},
		{"comment|customerComment|shipComment"},
	}
	gvM1Accept = []bool{
		true,
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
		case "comment":
			cls = 0
		case "customerComment":
			cls = 1
		case "shipComment":
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
		case 1:
			return 1, 0
		case 2:
			return 1, 0
		}
	case 1:
		switch cls {
		case 0:
			return 1, 0
		case 1:
			return 1, 0
		case 2:
			return 1, 0
		}
	}
	return -1, -1
}

// DFA tables for the content model of NoteBlock: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM2StepExp = [][]string{
		{"end of content", "shipNote"},
		{"shipNote"},
	}
	gvM2EndExp = [][]string{
		{"shipNote"},
		{"shipNote"},
	}
	gvM2Accept = []bool{
		true,
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
		case "shipNote":
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
		case "address":
			gvElemAddressElement(s, root, "/"+root.TagName())
			s.CheckIDRefs()
			return s.Result()
		case "comment":
			gvElemCommentElement(s, root, "/"+root.TagName())
			s.CheckIDRefs()
			return s.Result()
		case "commentBlock":
			gvElemCommentBlockElement(s, root, "/"+root.TagName())
			s.CheckIDRefs()
			return s.Result()
		case "customerComment":
			gvElemCustomerCommentElement(s, root, "/"+root.TagName())
			s.CheckIDRefs()
			return s.Result()
		case "note":
			gvElemNoteElement(s, root, "/"+root.TagName())
			s.CheckIDRefs()
			return s.Result()
		case "noteBlock":
			gvElemNoteBlockElement(s, root, "/"+root.TagName())
			s.CheckIDRefs()
			return s.Result()
		case "shipComment":
			gvElemShipCommentElement(s, root, "/"+root.TagName())
			s.CheckIDRefs()
			return s.Result()
		case "shipNote":
			gvElemShipNoteElement(s, root, "/"+root.TagName())
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

// gvElemAddressElement validates one element governed by address.
func gvElemAddressElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeAddressType(s, el, path)
}

// gvElemNameElement validates one element governed by name.
func gvElemNameElement(s *validator.Sink, el *dom.Element, path string) {
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
		s.Element(el, gvDecl2, path)
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
		s.Element(el, gvDecl3, path)
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

// gvElemCommentElement validates one element governed by comment.
func gvElemCommentElement(s *validator.Sink, el *dom.Element, path string) {
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

// gvElemCommentBlockElement validates one element governed by commentBlock.
func gvElemCommentBlockElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeCommentBlockType(s, el, path)
}

// gvElemCustomerCommentElement validates one element governed by customerComment.
func gvElemCustomerCommentElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvContentCustomerCommentElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentCustomerCommentElement checks the character content of customerComment.
func gvContentCustomerCommentElement(s *validator.Sink, el *dom.Element, path string) {
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

// gvElemNoteElement validates one element governed by note.
func gvElemNoteElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvContentNoteElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentNoteElement checks the character content of note.
func gvContentNoteElement(s *validator.Sink, el *dom.Element, path string) {
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

// gvElemNoteBlockElement validates one element governed by noteBlock.
func gvElemNoteBlockElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeNoteBlockType(s, el, path)
}

// gvElemShipCommentElement validates one element governed by shipComment.
func gvElemShipCommentElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvContentShipCommentElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentShipCommentElement checks the character content of shipComment.
func gvContentShipCommentElement(s *validator.Sink, el *dom.Element, path string) {
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

// gvElemShipNoteElement validates one element governed by shipNote.
func gvElemShipNoteElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvContentShipNoteElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentShipNoteElement checks the character content of shipNote.
func gvContentShipNoteElement(s *validator.Sink, el *dom.Element, path string) {
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

// gvTypeAddressType validates attributes and content of Address.
func gvTypeAddressType(s *validator.Sink, el *dom.Element, path string) {
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
			gvElemNameElement(s, child, cpath)
		case 1:
			gvElemStreetElement(s, child, cpath)
		case 2:
			gvElemCityElement(s, child, cpath)
		}
	}
}

// gvTypeCommentBlockType validates attributes and content of CommentBlock.
func gvTypeCommentBlockType(s *validator.Sink, el *dom.Element, path string) {
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
		next, leaf := gvM1Step(st, child.NamespaceURI(), child.LocalName())
		if next < 0 {
			s.Violate(validator.ChildPath(path, child), (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: child.NamespaceURI(), Local: child.LocalName()}, Expected: gvM1StepExp[st]}).Error())
			return
		}
		leaves[i] = leaf
		st = next
	}
	if len(children) > 0 && !gvM1Accept[st] {
		s.Violate(path, (&contentmodel.MatchError{Index: len(children), Premature: true, Expected: gvM1EndExp[st]}).Error())
		return
	}
	counts := map[string]int{}
	for i, child := range children {
		cpath := validator.ChildPathIndexed(path, child, counts)
		switch leaves[i] {
		case 0:
			switch child.NamespaceURI() {
			case "":
				switch child.LocalName() {
				case "comment":
					gvElemCommentElement(s, child, cpath)
				case "customerComment":
					gvElemCustomerCommentElement(s, child, cpath)
				case "shipComment":
					gvElemShipCommentElement(s, child, cpath)
				}
			}
		}
	}
}

// gvTypeNoteBlockType validates attributes and content of NoteBlock.
func gvTypeNoteBlockType(s *validator.Sink, el *dom.Element, path string) {
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
	if len(children) > 0 && !gvM2Accept[st] {
		s.Violate(path, (&contentmodel.MatchError{Index: len(children), Premature: true, Expected: gvM2EndExp[st]}).Error())
		return
	}
	counts := map[string]int{}
	for i, child := range children {
		cpath := validator.ChildPathIndexed(path, child, counts)
		switch leaves[i] {
		case 0:
			gvElemShipNoteElement(s, child, cpath)
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
		case "address":
			val, err := gvDecAddressElement(root, false)
			if err != nil {
				return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "bind: " + err.Error()}}}
			}
			return val, res
		case "comment":
			val, err := gvDecCommentElement(root, false)
			if err != nil {
				return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "bind: " + err.Error()}}}
			}
			return val, res
		case "commentBlock":
			val, err := gvDecCommentBlockElement(root, false)
			if err != nil {
				return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "bind: " + err.Error()}}}
			}
			return val, res
		case "customerComment":
			val, err := gvDecCustomerCommentElement(root, false)
			if err != nil {
				return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "bind: " + err.Error()}}}
			}
			return val, res
		case "note":
			val, err := gvDecNoteElement(root, false)
			if err != nil {
				return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "bind: " + err.Error()}}}
			}
			return val, res
		case "noteBlock":
			val, err := gvDecNoteBlockElement(root, false)
			if err != nil {
				return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "bind: " + err.Error()}}}
			}
			return val, res
		case "shipComment":
			val, err := gvDecShipCommentElement(root, false)
			if err != nil {
				return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "bind: " + err.Error()}}}
			}
			return val, res
		case "shipNote":
			val, err := gvDecShipNoteElement(root, false)
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

// gvDecAddressElement decodes one validated element governed by address.
func gvDecAddressElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl0, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT0)
	v.Attrs = gvDecAttrsAddressType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyAddressType(v, el)
}

// gvDecNameElement decodes one validated element governed by name.
func gvDecNameElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl1, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT1)
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
		return gvBinder.DecodeElement(el, gvDecl2, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT1)
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
		return gvBinder.DecodeElement(el, gvDecl3, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT1)
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

// gvDecCommentElement decodes one validated element governed by comment.
func gvDecCommentElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl4, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT1)
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

// gvDecCommentBlockElement decodes one validated element governed by commentBlock.
func gvDecCommentBlockElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl5, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT2)
	v.Attrs = gvDecAttrsCommentBlockType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyCommentBlockType(v, el)
}

// gvDecCustomerCommentElement decodes one validated element governed by customerComment.
func gvDecCustomerCommentElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl6, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT1)
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

// gvDecNoteElement decodes one validated element governed by note.
func gvDecNoteElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl7, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT1)
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

// gvDecNoteBlockElement decodes one validated element governed by noteBlock.
func gvDecNoteBlockElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl8, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT3)
	v.Attrs = gvDecAttrsNoteBlockType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyNoteBlockType(v, el)
}

// gvDecShipCommentElement decodes one validated element governed by shipComment.
func gvDecShipCommentElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl9, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT1)
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

// gvDecShipNoteElement decodes one validated element governed by shipNote.
func gvDecShipNoteElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl10, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT1)
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

// gvDecAttrsAddressType types the attributes of Address, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsAddressType(el *dom.Element) []bind.Attr {
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

// gvDecBodyAddressType decodes the child content of Address.
func gvDecBodyAddressType(v *bind.Value, el *dom.Element) error {
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
			cv, err = gvDecNameElement(e, false)
		case 1:
			cv, err = gvDecStreetElement(e, false)
		case 2:
			cv, err = gvDecCityElement(e, false)
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

// gvDecAttrsCommentBlockType types the attributes of CommentBlock, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsCommentBlockType(el *dom.Element) []bind.Attr {
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

// gvDecBodyCommentBlockType decodes the child content of CommentBlock.
func gvDecBodyCommentBlockType(v *bind.Value, el *dom.Element) error {
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
	if len(elems) > 0 && !gvM1Accept[st] {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: len(elems), Premature: true, Expected: gvM1EndExp[st]}).Error())
	}
	vals := make([]*bind.Value, len(elems))
	for i, e := range elems {
		var cv *bind.Value
		var err error
		switch leaves[i] {
		case 0:
			switch e.NamespaceURI() {
			case "":
				switch e.LocalName() {
				case "comment":
					cv, err = gvDecCommentElement(e, false)
				case "customerComment":
					cv, err = gvDecCustomerCommentElement(e, false)
				case "shipComment":
					cv, err = gvDecShipCommentElement(e, false)
				}
			}
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

// gvDecAttrsNoteBlockType types the attributes of NoteBlock, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsNoteBlockType(el *dom.Element) []bind.Attr {
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

// gvDecBodyNoteBlockType decodes the child content of NoteBlock.
func gvDecBodyNoteBlockType(v *bind.Value, el *dom.Element) error {
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
	if len(elems) > 0 && !gvM2Accept[st] {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: len(elems), Premature: true, Expected: gvM2EndExp[st]}).Error())
	}
	vals := make([]*bind.Value, len(elems))
	for i, e := range elems {
		var cv *bind.Value
		var err error
		switch leaves[i] {
		case 0:
			cv, err = gvDecShipNoteElement(e, false)
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
