// Code generated by vdomgen from the namespaced order schema (namespace-handling coverage). DO NOT EDIT.
//
// Compiled validator (the codegen validator back end): every content
// model is unrolled into switch statements over its exported DFA,
// attribute sets and simple-type facet chains are straight-line checks,
// and Decode specializes the generic binder walk. Cold paths
// (xsi:type, identity constraints, pruned declarations, refused models)
// delegate to the interpreted walk through validator.Sink, so verdicts
// — including MatchError text — are byte-identical to
// validator.ValidateDocument over the RT schema.
package nsgen

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

	gvDecl0 = gvElemDecl("urn:example:po", "order") // element {urn:example:po}order
	gvT0    = gvDecl0.Type.(*xsd.ComplexType)       // complex type {urn:example:po}OrderType
	gvT1    = gvT0.AttributeUses[0].Decl.Type       // simple type {http://www.w3.org/2001/XMLSchema}int
	gvDecl1 = gvParticleElem(gvT0.Particle, 0)      // element {urn:example:po}id
	gvT2    = gvDecl1.Type.(*xsd.SimpleType)        // simple type {http://www.w3.org/2001/XMLSchema}positiveInteger
	gvDecl2 = gvParticleElem(gvT0.Particle, 1)      // element {urn:example:po}note
	gvT3    = gvDecl2.Type.(*xsd.SimpleType)        // simple type {http://www.w3.org/2001/XMLSchema}string
)

// gvParse0 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}positiveInteger (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse0(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSCollapse, lexical)
	val, err := gvT2.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// gvParse1 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}string (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse1(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSPreserve, lexical)
	val, err := gvT3.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// gvParse2 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}int (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse2(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSCollapse, lexical)
	val, err := gvT1.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// DFA tables for the content model of {urn:example:po}OrderType: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM0StepExp = [][]string{
		{"{urn:example:po}id"},
		{"{urn:example:po}note"},
		{"end of content"},
	}
	gvM0EndExp = [][]string{
		{"{urn:example:po}id"},
		{"{urn:example:po}note"},
		{"end of content"},
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
	case "urn:example:po":
		switch local {
		case "id":
			cls = 0
		case "note":
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
	case "urn:example:po":
		switch root.LocalName() {
		case "order":
			gvElemOrderElement(s, root, "/"+root.TagName())
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

// gvElemOrderElement validates one element governed by {urn:example:po}order.
func gvElemOrderElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeOrderTypeType(s, el, path)
}

// gvElemIdElement validates one element governed by {urn:example:po}id.
func gvElemIdElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvContentIdElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentIdElement checks the character content of {urn:example:po}id.
func gvContentIdElement(s *validator.Sink, el *dom.Element, path string) {
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

// gvElemNoteElement validates one element governed by {urn:example:po}note.
func gvElemNoteElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvContentNoteElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentNoteElement checks the character content of {urn:example:po}note.
func gvContentNoteElement(s *validator.Sink, el *dom.Element, path string) {
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

// gvTypeOrderTypeType validates attributes and content of {urn:example:po}OrderType.
func gvTypeOrderTypeType(s *validator.Sink, el *dom.Element, path string) {
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "priority":
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
			gvElemIdElement(s, child, cpath)
		case 1:
			gvElemNoteElement(s, child, cpath)
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
	case "urn:example:po":
		switch root.LocalName() {
		case "order":
			val, err := gvDecOrderElement(root, false)
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

// gvDecOrderElement decodes one validated element governed by {urn:example:po}order.
func gvDecOrderElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl0, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT0)
	v.Attrs = gvDecAttrsOrderTypeType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyOrderTypeType(v, el)
}

// gvDecIdElement decodes one validated element governed by {urn:example:po}id.
func gvDecIdElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl1, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT2)
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

// gvDecNoteElement decodes one validated element governed by {urn:example:po}note.
func gvDecNoteElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl2, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT3)
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

// gvDecAttrsOrderTypeType types the attributes of {urn:example:po}OrderType, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsOrderTypeType(el *dom.Element) []bind.Attr {
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
			case "priority":
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

// gvDecBodyOrderTypeType decodes the child content of {urn:example:po}OrderType.
func gvDecBodyOrderTypeType(v *bind.Value, el *dom.Element) error {
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
			cv, err = gvDecIdElement(e, false)
		case 1:
			cv, err = gvDecNoteElement(e, false)
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
