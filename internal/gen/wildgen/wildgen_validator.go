// Code generated by vdomgen from the wildcard envelope schema (lax any/anyAttribute coverage). DO NOT EDIT.
//
// Compiled validator (the codegen validator back end): every content
// model is unrolled into switch statements over its exported DFA,
// attribute sets and simple-type facet chains are straight-line checks,
// and Decode specializes the generic binder walk. Cold paths
// (xsi:type, identity constraints, pruned declarations, refused models)
// delegate to the interpreted walk through validator.Sink, so verdicts
// — including MatchError text — are byte-identical to
// validator.ValidateDocument over the RT schema.
package wildgen

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

	gvDecl0 = gvElemDecl("", "envelope")       // element envelope
	gvT0    = gvDecl0.Type.(*xsd.ComplexType)  // complex type Envelope
	gvT1    = gvT0.AttributeUses[0].Decl.Type  // simple type {http://www.w3.org/2001/XMLSchema}positiveInteger
	gvDecl1 = gvElemDecl("", "extra")          // element extra
	gvT2    = gvDecl1.Type.(*xsd.SimpleType)   // simple type {http://www.w3.org/2001/XMLSchema}string
	gvDecl2 = gvElemDecl("", "record")         // element record
	gvT3    = gvDecl2.Type.(*xsd.ComplexType)  // complex type Record
	gvDecl3 = gvParticleElem(gvT3.Particle, 0) // element key
	gvDecl4 = gvParticleElem(gvT3.Particle, 1) // element value
)

// gvParse0 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}string (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse0(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSPreserve, lexical)
	val, err := gvT2.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// gvParse1 is the straight-line parser of {http://www.w3.org/2001/XMLSchema}positiveInteger (whitespace, built-in
// parse, then user facet steps base-outward, as SimpleType.Parse).
func gvParse1(lexical string) (xsdtypes.Value, error) {
	norm0 := xsdtypes.ApplyWhiteSpace(xsdtypes.WSCollapse, lexical)
	val, err := gvT1.Builtin.Parse(norm0)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return val, nil
}

// DFA tables for the content model of Envelope: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM0StepExp = [][]string{
		{"any", "end of content"},
		{"any"},
	}
	gvM0EndExp = [][]string{
		{"any"},
		{"any"},
	}
	gvM0Accept = []bool{
		true,
		true,
	}
)

// gvM0Step takes one DFA transition (successor state, attributed leaf;
// -1, -1 on reject).
func gvM0Step(st int, space, local string) (int, int) {
	cls := -1
	if cls < 0 {
		// Undeclared name: route through the wildcard-admission bucket.
		mask := 0
		mask |= 1 // ##any
		cls = 0 + mask
	}
	switch st {
	case 0:
		switch cls {
		case 1:
			return 1, 0
		}
	case 1:
		switch cls {
		case 1:
			return 1, 0
		}
	}
	return -1, -1
}

// DFA tables for the content model of Record: per-state expected-label
// lists (exactly the lazy path's MatchError.Expected) and acceptance.
var (
	gvM1StepExp = [][]string{
		{"key"},
		{"value"},
		{"end of content"},
	}
	gvM1EndExp = [][]string{
		{"key"},
		{"value"},
		{"end of content"},
	}
	gvM1Accept = []bool{
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
		case "key":
			cls = 0
		case "value":
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
	case "":
		switch root.LocalName() {
		case "envelope":
			gvElemEnvelopeElement(s, root, "/"+root.TagName())
			s.CheckIDRefs()
			return s.Result()
		case "extra":
			gvElemExtraElement(s, root, "/"+root.TagName())
			s.CheckIDRefs()
			return s.Result()
		case "record":
			gvElemRecordElement(s, root, "/"+root.TagName())
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

// gvElemEnvelopeElement validates one element governed by envelope.
func gvElemEnvelopeElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeEnvelopeType(s, el, path)
}

// gvElemExtraElement validates one element governed by extra.
func gvElemExtraElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvContentExtraElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentExtraElement checks the character content of extra.
func gvContentExtraElement(s *validator.Sink, el *dom.Element, path string) {
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

// gvElemRecordElement validates one element governed by record.
func gvElemRecordElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvTypeRecordType(s, el, path)
}

// gvElemKeyElement validates one element governed by key.
func gvElemKeyElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvContentKeyElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentKeyElement checks the character content of key.
func gvContentKeyElement(s *validator.Sink, el *dom.Element, path string) {
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

// gvElemValueElement validates one element governed by value.
func gvElemValueElement(s *validator.Sink, el *dom.Element, path string) {
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
	gvContentValueElement(s, el, path)
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		s.Violate(path, fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

// gvContentValueElement checks the character content of value.
func gvContentValueElement(s *validator.Sink, el *dom.Element, path string) {
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

// gvTypeEnvelopeType validates attributes and content of Envelope.
func gvTypeEnvelopeType(s *validator.Sink, el *dom.Element, path string) {
	for _, a := range el.Attributes() {
		if validator.IsMetaAttr(a) {
			continue
		}
		handled := false
		switch a.Name().Space {
		case "":
			switch a.Name().Local {
			case "version":
				handled = true
				if _, err := gvParse1(a.Value()); err != nil {
					s.Violate(path, fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
				}
			}
		}
		if !handled {
			continue // attribute wildcard admits everything
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
	if len(children) > 0 && !gvM0Accept[st] {
		s.Violate(path, (&contentmodel.MatchError{Index: len(children), Premature: true, Expected: gvM0EndExp[st]}).Error())
		return
	}
	counts := map[string]int{}
	for i, child := range children {
		cpath := validator.ChildPathIndexed(path, child, counts)
		switch leaves[i] {
		case 0:
			gvValidateWild(s, child, cpath)
		}
	}
}

// gvTypeRecordType validates attributes and content of Record.
func gvTypeRecordType(s *validator.Sink, el *dom.Element, path string) {
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
			gvElemKeyElement(s, child, cpath)
		case 1:
			gvElemValueElement(s, child, cpath)
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
		case "envelope":
			val, err := gvDecEnvelopeElement(root, false)
			if err != nil {
				return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "bind: " + err.Error()}}}
			}
			return val, res
		case "extra":
			val, err := gvDecExtraElement(root, false)
			if err != nil {
				return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "bind: " + err.Error()}}}
			}
			return val, res
		case "record":
			val, err := gvDecRecordElement(root, false)
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

// gvDecEnvelopeElement decodes one validated element governed by envelope.
func gvDecEnvelopeElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl0, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT0)
	v.Attrs = gvDecAttrsEnvelopeType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyEnvelopeType(v, el)
}

// gvDecExtraElement decodes one validated element governed by extra.
func gvDecExtraElement(el *dom.Element, wild bool) (*bind.Value, error) {
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

// gvDecRecordElement decodes one validated element governed by record.
func gvDecRecordElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl2, wild)
	}
	v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}
	v.SetType(gvT3)
	v.Attrs = gvDecAttrsRecordType(el)
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex == "true" || lex == "1" {
		v.Kind = bind.KindNil
		return v, nil
	}
	return v, gvDecBodyRecordType(v, el)
}

// gvDecKeyElement decodes one validated element governed by key.
func gvDecKeyElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl3, wild)
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

// gvDecValueElement decodes one validated element governed by value.
func gvDecValueElement(el *dom.Element, wild bool) (*bind.Value, error) {
	// xsi:type substitutions take the generic path.
	if el.GetAttributeNS(xsd.XSINamespace, "type") != "" {
		return gvBinder.DecodeElement(el, gvDecl4, wild)
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

// gvDecAttrsEnvelopeType types the attributes of Envelope, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsEnvelopeType(el *dom.Element) []bind.Attr {
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
			case "version":
				handled = true
				if val, err := gvParse1(a.Value()); err == nil {
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

// gvDecBodyEnvelopeType decodes the child content of Envelope.
func gvDecBodyEnvelopeType(v *bind.Value, el *dom.Element) error {
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
	if len(elems) > 0 && !gvM0Accept[st] {
		return fmt.Errorf("content model rejected validated children: %s", (&contentmodel.MatchError{Index: len(elems), Premature: true, Expected: gvM0EndExp[st]}).Error())
	}
	vals := make([]*bind.Value, len(elems))
	for i, e := range elems {
		var cv *bind.Value
		var err error
		switch leaves[i] {
		case 0:
			cv, err = gvDecodeWild(e)
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

// gvDecAttrsRecordType types the attributes of Record, materializing
// absent defaulted/fixed attributes like the generic binder.
func gvDecAttrsRecordType(el *dom.Element) []bind.Attr {
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

// gvDecBodyRecordType decodes the child content of Record.
func gvDecBodyRecordType(v *bind.Value, el *dom.Element) error {
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
			cv, err = gvDecKeyElement(e, false)
		case 1:
			cv, err = gvDecValueElement(e, false)
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

// gvValidateWild validates a wildcard-admitted element laxly: known
// global declarations validate, anything else is accepted.
func gvValidateWild(s *validator.Sink, child *dom.Element, cpath string) {
	switch child.NamespaceURI() {
	case "":
		switch child.LocalName() {
		case "envelope":
			gvElemEnvelopeElement(s, child, cpath)
		case "extra":
			gvElemExtraElement(s, child, cpath)
		case "record":
			gvElemRecordElement(s, child, cpath)
		}
	}
}

// gvDecodeWild decodes a wildcard-admitted element: known global
// declarations decode typed (wild), anything else is kept raw.
func gvDecodeWild(e *dom.Element) (*bind.Value, error) {
	switch e.NamespaceURI() {
	case "":
		switch e.LocalName() {
		case "envelope":
			return gvDecEnvelopeElement(e, true)
		case "extra":
			return gvDecExtraElement(e, true)
		case "record":
			return gvDecRecordElement(e, true)
		}
	}
	return &bind.Value{Name: xsd.QName{Space: e.NamespaceURI(), Local: e.LocalName()}, Kind: bind.KindRaw, Wild: true, Raw: dom.ToString(e)}, nil
}
