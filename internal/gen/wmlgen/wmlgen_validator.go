// Code generated by vdomgen from the WML subset schema (paper §5). DO NOT EDIT.
//
// Compiled validator (the codegen validator back end): every content
// model is unrolled into switch statements over its exported DFA,
// attribute sets and simple-type facet chains are straight-line checks,
// and Decode specializes the generic binder walk. Cold paths
// (xsi:type, identity constraints, pruned declarations, refused models)
// delegate to the interpreted walk through validator.Sink, so verdicts
// — including MatchError text — are byte-identical to
// validator.ValidateDocument over the RT schema.
package wmlgen

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

	gvDecl0 = gvElemDecl("", "wml")            // element wml
	gvT0    = gvDecl0.Type.(*xsd.ComplexType)  // complex type Wml
	gvDecl1 = gvParticleElem(gvT0.Particle, 0) // element card
	gvT1    = gvDecl1.Type.(*xsd.ComplexType)  // complex type Card
	gvT2    = gvT1.AttributeUses[0].Decl.Type  // simple type {http://www.w3.org/2001/XMLSchema}NMTOKEN
	gvT3    = gvT1.AttributeUses[1].Decl.Type  // simple type {http://www.w3.org/2001/XMLSchema}string
	gvDecl2 = gvParticleElem(gvT1.Particle, 0) // element p
	gvT4    = gvDecl2.Type.(*xsd.ComplexType)  // complex type P
	gvT5    = gvT4.AttributeUses[0].Decl.Type  // simple type Alignment
	gvDecl3 = gvParticleElem(gvT4.Particle, 0) // element b
	gvDecl4 = gvParticleElem(gvT4.Particle, 1) // element br
	gvT6    = gvDecl4.Type.(*xsd.ComplexType)  // complex type Br
	gvDecl5 = gvParticleElem(gvT4.Particle, 2) // element select
	gvT7    = gvDecl5.Type.(*xsd.ComplexType)  // complex type Select
	gvT8    = gvT7.AttributeUses[2].Decl.Type  // simple type {http://www.w3.org/2001/XMLSchema}boolean
	gvDecl6 = gvParticleElem(gvT7.Particle, 0) // element option
	gvT9    = gvDecl6.Type.(*xsd.ComplexType)  // complex type Option
	gvT10   = gvT9.AttributeUses[2].Decl.Type  // simple type {http://www.w3.org/2001/XMLSchema}anyURI
	gvDecl7 = gvParticleElem(gvT4.Particle, 3) // element a
	gvT11   = gvDecl7.Type.(*xsd.ComplexType)  // complex type A
)

// gvParse0 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}string (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse0(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSPreserve, lexical)
	val, err := gvT3.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// gvParse1 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}NMTOKEN (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse1(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSCollapse, lexical)
	val, err := gvT2.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// gvParse2 is the straight-line parser of Alignment (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse2(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSPreserve, lexical)
	norm1 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSPreserve, norm0)
	val, err := gvT3.Builtin.Parse(norm1)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	if err := gvT5.Facets.Check(val, norm0); err != nil {
		return xsdtypes.Value{}, fmt.Errorf("%s: %w", "Alignment", err)
	}
	return val, nil
}

// gvParse3 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}boolean (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse3(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSCollapse, lexical)
	val, err := gvT8.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// gvParse4 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}anyURI (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse4(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSCollapse, lexical)
	val, err := gvT10.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// DFA tables for the content model of Wml: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM0StepExp = [][]string{
		{"card"},
		{"card"},
		{"card"},
	}
	gvM0EndExp = [][]string{
		{"card"},
		{"card"},
		{"card"},
	}
	gvM0Accept = []bool{
		false,
		true,
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
		case "card":
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
			return 2, 0
		}
	case 2:
		switch cls {
		case 0:
			return 2, 0
		}
	}
	return -1, -1
}

// DFA tables for the content model of Card: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM1StepExp = [][]string{
		{"end of content", "p"},
		{"p"},
	}
	gvM1EndExp = [][]string{
		{"p"},
		{"p"},
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
		case "p":
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

// DFA tables for the content model of P: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM2StepExp = [][]string{
		{"a", "b", "br", "end of content", "select"},
		{"a", "b", "br", "select"},
		{"a", "b", "br", "select"},
		{"a", "b", "br", "select"},
		{"a", "b", "br", "select"},
	}
	gvM2EndExp = [][]string{
		{"a", "b", "br", "select"},
		{"a", "b", "br", "select"},
		{"a", "b", "br", "select"},
		{"a", "b", "br", "select"},
		{"a", "b", "br", "select"},
	}
	gvM2Accept = []bool{
		true,
		true,
		true,
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
		case "b":
			cls = 0
		case "br":
			cls = 1
		case "select":
			cls = 2
		case "a":
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
		case 2:
			return 3, 2
		case 3:
			return 4, 3
		}
	case 1:
		switch cls {
		case 0:
			return 1, 0
		case 1:
			return 2, 1
		case 2:
			return 3, 2
		case 3:
			return 4, 3
		}
	case 2:
		switch cls {
		case 0:
			return 1, 0
		case 1:
			return 2, 1
		case 2:
			return 3, 2
		case 3:
			return 4, 3
		}
	case 3:
		switch cls {
		case 0:
			return 1, 0
		case 1:
			return 2, 1
		case 2:
			return 3, 2
		case 3:
			return 4, 3
		}
	case 4:
		switch cls {
		case 0:
			return 1, 0
		case 1:
			return 2, 1
		case 2:
			return 3, 2
		case 3:
			return 4, 3
		}
	}
	return -1, -1
}

// DFA tables for the content model of Select: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM3StepExp = [][]string{
		{"option"},
		{"option"},
		{"option"},
	}
	gvM3EndExp = [][]string{
		{"option"},
		{"option"},
		{"option"},
	}
	gvM3Accept = []bool{
		false,
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
		case "option":
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
			return 2, 0
		}
	case 2:
		switch cls {
		case 0:
			return 2, 0
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
		case "wml":
			gvElemWmlElement(s, root, "/"+root.TagName())
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

// gvElemWmlElement validates one element governed by wml.
func gvElemWmlElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeWmlType(s, el, path)
}

// gvElemCardElement validates one element governed by card.
func gvElemCardElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeCardType(s, el, path)
}

// gvElemPElement validates one element governed by p.
func gvElemPElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypePType(s, el, path)
}

// gvElemBElement validates one element governed by b.
func gvElemBElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvContentBElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentBElement checks the character content of b.
func gvContentBElement(s *validator.Sink, el *dom.Element, path string) {
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

// gvElemBrElement validates one element governed by br.
func gvElemBrElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeBrType(s, el, path)
}

// gvElemSelectElement validates one element governed by select.
func gvElemSelectElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeSelectType(s, el, path)
}

// gvElemOptionElement validates one element governed by option.
func gvElemOptionElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeOptionType(s, el, path)
}

// gvElemAElement validates one element governed by a.
func gvElemAElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeAType(s, el, path)
}

// gvTypeWmlType validates attributes and content of Wml.
func gvTypeWmlType(s *validator.Sink, el *dom.Element, path string) {
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
			gvElemCardElement(s, child, cpath)
		}
	}
}

// gvTypeCardType validates attributes and content of Card.
func gvTypeCardType(s *validator.Sink, el *dom.Element, path string) {
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "id":
				handled = true
				if _, err := gvParse1(a.Value()); err != nil {
					s.Violate(path, fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
				}
			case "title":
				handled = true
				if _, err := gvParse0(a.Value()); err != nil {
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
			gvElemPElement(s, child, cpath)
		}
	}
}

// gvTypePType validates attributes and content of P.
func gvTypePType(s *validator.Sink, el *dom.Element, path string) {
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "align":
				handled = true
				if _, err := gvParse2(a.Value()); err != nil {
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
		if x, ok := c.(*dom.Element); ok {
			children = append(children, x)
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
			gvElemBElement(s, child, cpath)
		case 1:
			gvElemBrElement(s, child, cpath)
		case 2:
			gvElemSelectElement(s, child, cpath)
		case 3:
			gvElemAElement(s, child, cpath)
		}
	}
}

// gvTypeBrType validates attributes and content of Br.
func gvTypeBrType(s *validator.Sink, el *dom.Element, path string) {
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not declared for this element", a.NodeName()))
	}
	for _, c := range el.ChildNodes() {
		switch x := c.(type) {
		case *dom.Element:
			s.Violate(path, fmt.Sprintf("element <%s> is not allowed in empty content", x.TagName()))
			return
		case *dom.Text:
			if strings.TrimSpace(x.Data) != "" {
				s.Violate(path, "character data is not allowed in empty content")
				return
			}
		case *dom.CDATASection:
			s.Violate(path, "character data is not allowed in empty content")
			return
		}
	}
}

// gvTypeSelectType validates attributes and content of Select.
func gvTypeSelectType(s *validator.Sink, el *dom.Element, path string) {
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "name":
				handled = true
				if _, err := gvParse1(a.Value()); err != nil {
					s.Violate(path, fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
				}
			case "title":
				handled = true
				if _, err := gvParse0(a.Value()); err != nil {
					s.Violate(path, fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
				}
			case "multiple":
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
		next, leaf := gvM3Step(st, child.NamespaceURI(), child.LocalName())
		if next < 0 {
			s.Violate(validator.ChildPath(path, child), (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: child.NamespaceURI(), Local: child.LocalName()}, Expected: gvM3StepExp[st]}).Error())
			return
		}
		leaves[i] = leaf
		st = next
	}
	if len(children) == 0 {
		s.Violate(path, (&contentmodel.MatchError{Index: 0, Premature: true, Expected: gvM3EndExp[0]}).Error())
		return
	}
	if !gvM3Accept[st] {
		s.Violate(path, (&contentmodel.MatchError{Index: len(children), Premature: true, Expected: gvM3EndExp[st]}).Error())
		return
	}
	counts := map[string]int{}
	for i, child := range children {
		cpath := validator.ChildPathIndexed(path, child, counts)
		switch leaves[i] {
		case 0:
			gvElemOptionElement(s, child, cpath)
		}
	}
}

// gvTypeOptionType validates attributes and content of Option.
func gvTypeOptionType(s *validator.Sink, el *dom.Element, path string) {
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "value":
				handled = true
				if _, err := gvParse0(a.Value()); err != nil {
					s.Violate(path, fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
				}
			case "title":
				handled = true
				if _, err := gvParse0(a.Value()); err != nil {
					s.Violate(path, fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
				}
			case "onpick":
				handled = true
				if _, err := gvParse4(a.Value()); err != nil {
					s.Violate(path, fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
				}
			}
		}
		if !handled {
			s.Violate(path, fmt.Sprintf("attribute %q is not declared for this element", a.NodeName()))
		}
	}
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			s.Violate(path, "element content is not allowed in simple content")
			return
		}
	}
	text := el.TextContent()
	if _, err := gvParse0(text); err != nil {
		s.Violate(path, err.Error())
	}
	_ = text
}

// gvTypeAType validates attributes and content of A.
func gvTypeAType(s *validator.Sink, el *dom.Element, path string) {
	seen0 := false
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "href":
				handled = true
				seen0 = true
				if _, err := gvParse4(a.Value()); err != nil {
					s.Violate(path, fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
				}
			case "title":
				handled = true
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
		s.Violate(path, "required attribute \"href\" is missing")
	}
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			s.Violate(path, "element content is not allowed in simple content")
			return
		}
	}
	text := el.TextContent()
	if _, err := gvParse0(text); err != nil {
		s.Violate(path, err.Error())
	}
	_ = text
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
		case "wml":
			val, err := gvDecWmlElement(root, false)
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

// gvDecWmlElement decodes one validated element governed by wml.
func gvDecWmlElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl0, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT0)
	v.Attrs = gvDecAttrsWmlType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyWmlType(v, el)
}

// gvDecCardElement decodes one validated element governed by card.
func gvDecCardElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl1, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT1)
	v.Attrs = gvDecAttrsCardType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyCardType(v, el)
}

// gvDecPElement decodes one validated element governed by p.
func gvDecPElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl2, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT4)
	v.Attrs = gvDecAttrsPType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyPType(v, el)
}

// gvDecBElement decodes one validated element governed by b.
func gvDecBElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl3, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT3)
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

// gvDecBrElement decodes one validated element governed by br.
func gvDecBrElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl4, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT6)
	v.Attrs = gvDecAttrsBrType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	v.Kind = bind.KindEmpty
	return v, nil
}

// gvDecSelectElement decodes one validated element governed by select.
func gvDecSelectElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl5, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT7)
	v.Attrs = gvDecAttrsSelectType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodySelectType(v, el)
}

// gvDecOptionElement decodes one validated element governed by option.
func gvDecOptionElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl6, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT9)
	v.Attrs = gvDecAttrsOptionType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	val, err := gvParse0(el.TextContent())
	if err != nil {
		return nil, err
	}
	v.Kind = bind.KindSimple
	v.Simple = val
	return v, nil
}

// gvDecAElement decodes one validated element governed by a.
func gvDecAElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl7, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT11)
	v.Attrs = gvDecAttrsAType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	val, err := gvParse0(el.TextContent())
	if err != nil {
		return nil, err
	}
	v.Kind = bind.KindSimple
	v.Simple = val
	return v, nil
}

// gvDecAttrsWmlType types the attributes of Wml, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsWmlType(el *dom.Element) []bind.Attr {
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

// gvDecBodyWmlType decodes the child content of Wml.
func gvDecBodyWmlType(v *bind.Value, el *dom.Element) error {
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
			cv, err = gvDecCardElement(e, false)
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

// gvDecAttrsCardType types the attributes of Card, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsCardType(el *dom.Element) []bind.Attr {
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
			case "id":
				handled = true
				if val, err := gvParse1(a.Value()); err == nil {
					out = append(out, bind.Attr{Name: name, Value: val})
				} else {
					out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
				}
			case "title":
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

// gvDecBodyCardType decodes the child content of Card.
func gvDecBodyCardType(v *bind.Value, el *dom.Element) error {
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
			cv, err = gvDecPElement(e, false)
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

// gvDecAttrsPType types the attributes of P, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsPType(el *dom.Element) []bind.Attr {
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
			case "align":
				handled = true
				if val, err := gvParse2(a.Value()); err == nil {
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

// gvDecBodyPType decodes the child content of P.
func gvDecBodyPType(v *bind.Value, el *dom.Element) error {
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
			cv, err = gvDecBElement(e, false)
		case 1:
			cv, err = gvDecBrElement(e, false)
		case 2:
			cv, err = gvDecSelectElement(e, false)
		case 3:
			cv, err = gvDecAElement(e, false)
		}
		if err != nil {
			return err
		}
		vals[i] = cv
	}
	v.Kind = bind.KindMixed
	ei := 0
	for _, k := range kids {
		switch n := k.(type) {
		case *dom.Element:
			v.Segments = append(v.Segments, bind.Segment{Child: vals[ei]})
			ei++
		case *dom.Text:
			v.Segments = bind.AppendText(v.Segments, n.Data)
		case *dom.CDATASection:
			v.Segments = bind.AppendText(v.Segments, n.Data)
		}
	}
	return nil
}

// gvDecAttrsBrType types the attributes of Br, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsBrType(el *dom.Element) []bind.Attr {
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

// gvDecAttrsSelectType types the attributes of Select, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsSelectType(el *dom.Element) []bind.Attr {
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
			case "name":
				handled = true
				if val, err := gvParse1(a.Value()); err == nil {
					out = append(out, bind.Attr{Name: name, Value: val})
				} else {
					out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
				}
			case "title":
				handled = true
				if val, err := gvParse0(a.Value()); err == nil {
					out = append(out, bind.Attr{Name: name, Value: val})
				} else {
					out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
				}
			case "multiple":
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

// gvDecBodySelectType decodes the child content of Select.
func gvDecBodySelectType(v *bind.Value, el *dom.Element) error {
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
	if len(elems) == 0 {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: 0, Premature: true, Expected: gvM3EndExp[0]}).Error())
	}
	if !gvM3Accept[st] {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: len(elems), Premature: true, Expected: gvM3EndExp[st]}).Error())
	}
	vals := make([]*bind.Value, len(elems))
	for i, e := range elems {
		var cv *bind.Value
		var err error
		switch leaves[i] {
		case 0:
			cv, err = gvDecOptionElement(e, false)
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

// gvDecAttrsOptionType types the attributes of Option, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsOptionType(el *dom.Element) []bind.Attr {
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
			case "value":
				handled = true
				if val, err := gvParse0(a.Value()); err == nil {
					out = append(out, bind.Attr{Name: name, Value: val})
				} else {
					out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
				}
			case "title":
				handled = true
				if val, err := gvParse0(a.Value()); err == nil {
					out = append(out, bind.Attr{Name: name, Value: val})
				} else {
					out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
				}
			case "onpick":
				handled = true
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
	return out
}

// gvDecAttrsAType types the attributes of A, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsAType(el *dom.Element) []bind.Attr {
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
			case "href":
				handled = true
				if val, err := gvParse4(a.Value()); err == nil {
					out = append(out, bind.Attr{Name: name, Value: val})
				} else {
					out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})
				}
			case "title":
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

// Marshal serializes a value as schema-valid XML (the binder's rules
// and error surface).
func Marshal(v *bind.Value) ([]byte, error) {
	return gvBinder.Marshal(v)
}
