package codegen

// Function-body emission for the validator back end: the public API
// (Validate/Decode/Marshal and friends), one validate and one decode
// function per element declaration, and one attribute/content pair per
// complex type. Every emitted check replays the corresponding interpreted
// step (validator.run / bind.Binder) literally, so messages are
// byte-identical.

import (
	"fmt"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/xsd"
)

// elemFn names a per-declaration generated function.
func (v *valgen) elemFn(prefix string, d *xsd.ElementDecl) string {
	en, ok := v.names.Elements[d]
	if !ok {
		v.fail("element %s has no assigned names", d.Name)
		return prefix + "Missing"
	}
	return prefix + en.GoType
}

// typeGo names a per-type generated function suffix.
func (v *valgen) typeGo(t xsd.Type) string {
	tn, ok := v.names.Types[t]
	if !ok {
		v.fail("type %s has no assigned names", typeLabel(t))
		return "Missing"
	}
	return tn.GoType
}

// trackMethod maps a simple type to the Sink ID-tracking call its values
// need ("" when the primitive is not ID-flavored), mirroring run.trackIDs.
func trackMethod(st *xsd.SimpleType) string {
	b := st.PrimitiveBuiltin()
	if b == nil {
		return ""
	}
	switch b.Name {
	case "ID":
		return "TrackID"
	case "IDREF":
		return "TrackIDRef"
	case "IDREFS":
		return "TrackIDRefs"
	}
	return ""
}

// admitsExpr renders Wildcard.Admits over a namespace expression.
func admitsExpr(w *contentmodel.Wildcard, spaceExpr string) string {
	switch w.Kind {
	case contentmodel.WildAny:
		return "true"
	case contentmodel.WildOther:
		return fmt.Sprintf("%s != %q && %s != \"\"", spaceExpr, w.TargetNS, spaceExpr)
	default:
		seen := map[string]bool{}
		var conds []string
		for _, ns := range w.Namespaces {
			if seen[ns] {
				continue
			}
			seen[ns] = true
			conds = append(conds, fmt.Sprintf("%s == %q", spaceExpr, ns))
		}
		if len(conds) == 0 {
			return "false"
		}
		return strings.Join(conds, " || ")
	}
}

// nameArm is one case of a namespace+local-name switch.
type nameArm struct {
	space, local string
	body         func()
}

// emitNameSwitch prints a two-level switch over (space, local), grouping
// arms by namespace in first-seen order.
func (v *valgen) emitNameSwitch(spaceExpr, localExpr string, arms []nameArm) {
	var spaces []string
	bySpace := map[string][]nameArm{}
	for _, a := range arms {
		if _, ok := bySpace[a.space]; !ok {
			spaces = append(spaces, a.space)
		}
		bySpace[a.space] = append(bySpace[a.space], a)
	}
	v.p("switch %s {", spaceExpr)
	for _, sp := range spaces {
		v.p("case %q:", sp)
		v.p("switch %s {", localExpr)
		for _, a := range bySpace[sp] {
			v.p("case %q:", a.local)
			a.body()
		}
		v.p("}")
	}
	v.p("}")
}

// emitAPI prints Validate and ValidateBytes.
func (v *valgen) emitAPI() {
	p := v.p
	p("// Validate checks a whole document against the schema. The verdict —")
	p("// every violation path and message — is byte-identical to")
	p("// validator.ValidateDocument over the RT schema.")
	p("func Validate(doc *dom.Document) *validator.Result {")
	p("s := validator.NewSink(gvValidator)")
	p("root := doc.DocumentElement()")
	p("if root == nil {")
	p("s.Violate(\"/\", \"document has no root element\")")
	p("return s.Result()")
	p("}")
	var arms []nameArm
	for _, d := range v.norm.Elements {
		decl := d
		arms = append(arms, nameArm{space: d.Name.Space, local: d.Name.Local, body: func() {
			p("%s(s, root, \"/\"+root.TagName())", v.elemFn("gvElem", decl))
			p("s.CheckIDRefs()")
			p("return s.Result()")
		}})
	}
	v.emitNameSwitch("root.NamespaceURI()", "root.LocalName()", arms)
	p("s.Violate(\"/\"+root.TagName(), fmt.Sprintf(\"no global declaration for root element %%s\", xsd.QName{Space: root.NamespaceURI(), Local: root.LocalName()}))")
	p("return s.Result()")
	p("}")
	p("")
	p("// ValidateBytes parses and validates a serialized document in one")
	p("// step, like validator.ValidateBytes.")
	p("func ValidateBytes(src []byte) (*dom.Document, *validator.Result) {")
	p("doc, err := dom.Parse(src)")
	p("if err != nil {")
	p("return nil, &validator.Result{Violations: []validator.Violation{{Path: \"/\", Msg: err.Error()}}}")
	p("}")
	p("return doc, Validate(doc)")
	p("}")
	p("")
}

// emitElemValidate prints the validate function of one declaration.
func (v *valgen) emitElemValidate(d *xsd.ElementDecl) {
	p := v.p
	fn := v.elemFn("gvElem", d)
	if !v.live(d) {
		p("// %s delegates %s to the interpreted walk (pruned:", fn, d.Name.String())
		p("// the instance corpus never reaches this declaration).")
		p("func %s(s *validator.Sink, el *dom.Element, path string) {", fn)
		p("s.Element(el, %s, path)", v.declVar[d])
		p("}")
		p("")
		return
	}
	p("// %s validates one element governed by %s.", fn, d.Name.String())
	p("func %s(s *validator.Sink, el *dom.Element, path string) {", fn)
	p("if s.Full() {")
	p("return")
	p("}")
	p("// xsi:type substitutions take the interpreted path (shared run state).")
	p("if el.GetAttributeNS(xsd.XSINamespace, \"type\") != \"\" {")
	p("s.Element(el, %s, path)", v.declVar[d])
	p("return")
	p("}")
	if ct, ok := d.Type.(*xsd.ComplexType); ok && ct.Abstract {
		p("s.Violate(path, %q)", fmt.Sprintf("type %s is abstract; an xsi:type of a concrete derived type is required", ct.Name))
		p("}")
		p("")
		return
	}
	if !d.Nillable {
		p("if el.GetAttributeNS(xsd.XSINamespace, \"nil\") != \"\" {")
		p("s.Violate(path, \"xsi:nil on a non-nillable element\")")
		p("return")
		p("}")
	} else {
		p("// Nilled elements take the interpreted path (shared run state).")
		p("if lex := el.GetAttributeNS(xsd.XSINamespace, \"nil\"); lex == \"true\" || lex == \"1\" {")
		p("s.Element(el, %s, path)", v.declVar[d])
		p("return")
		p("}")
	}
	switch t := d.Type.(type) {
	case *xsd.SimpleType:
		p("%s(s, el, path)", v.elemFn("gvContent", d))
		p("for _, a := range el.Attributes() {")
		p("if validator.IsMetaAttr(a) {")
		p("continue")
		p("}")
		p("s.Violate(path, fmt.Sprintf(\"attribute %%q is not allowed on a simple-type element\", a.NodeName()))")
		p("}")
	case *xsd.ComplexType:
		p("gvType%s(s, el, path)", v.typeGo(t))
	}
	if len(d.Constraints) > 0 {
		p("s.IdentityConstraints(el, %s, path)", v.declVar[d])
	}
	p("}")
	p("")
	if st, ok := d.Type.(*xsd.SimpleType); ok {
		v.emitSimpleContent(d, st)
	}
}

// emitSimpleContent prints the character-content check of a simple-typed
// declaration (run.simpleContent).
func (v *valgen) emitSimpleContent(d *xsd.ElementDecl, st *xsd.SimpleType) {
	p := v.p
	fn := v.elemFn("gvContent", d)
	pf := v.parseFnFor(st)
	p("// %s checks the character content of %s.", fn, d.Name.String())
	p("func %s(s *validator.Sink, el *dom.Element, path string) {", fn)
	p("for _, c := range el.ChildNodes() {")
	p("if _, ok := c.(*dom.Element); ok {")
	p("s.Violate(path, \"element content is not allowed in a simple-type element\")")
	p("return")
	p("}")
	p("}")
	p("text := el.TextContent()")
	if d.Fixed != nil {
		p("if text == \"\" {")
		p("text = %q", *d.Fixed)
		p("}")
	}
	if d.Default != nil {
		p("if text == \"\" {")
		p("text = %q", *d.Default)
		p("}")
	}
	if d.Fixed != nil {
		p("val, err := %s(text)", pf)
	} else {
		p("_, err := %s(text)", pf)
	}
	p("if err != nil {")
	p("s.Violate(path, err.Error())")
	p("return")
	p("}")
	if d.Fixed != nil {
		vv := v.valueVarFor(st, *d.Fixed)
		p("if %sOK && !val.Equal(%s) {", vv, vv)
		p("s.Violate(path, fmt.Sprintf(\"value %%q does not equal the fixed value %%q\", text, %q))", *d.Fixed)
		p("}")
	}
	if tm := trackMethod(st); tm != "" {
		p("s.%s(text, path)", tm)
	}
	p("}")
	p("")
}

// emitTypeValidate prints the attribute and content checks of one complex
// type (run.attributes + run.complexElement).
func (v *valgen) emitTypeValidate(ct *xsd.ComplexType) {
	p := v.p
	fn := "gvType" + v.typeGo(ct)
	p("// %s validates attributes and content of %s.", fn, typeLabel(ct))
	p("func %s(s *validator.Sink, el *dom.Element, path string) {", fn)
	v.emitAttrValidate(ct)
	v.emitContentValidate(ct)
	p("}")
	p("")
}

// emitAttrValidate prints the unrolled attribute walk of one complex type.
func (v *valgen) emitAttrValidate(ct *xsd.ComplexType) {
	p := v.p
	var activeIdx []int // non-prohibited uses, declaration order
	for i, use := range ct.AttributeUses {
		if !use.Prohibited {
			activeIdx = append(activeIdx, i)
		}
	}
	for _, i := range activeIdx {
		if ct.AttributeUses[i].Required {
			p("seen%d := false", i)
		}
	}
	p("for _, a := range el.Attributes() {")
	p("if validator.IsMetaAttr(a) {")
	p("continue")
	p("}")
	unhandled := func() {
		if ct.AttrWildcard != nil {
			cond := admitsExpr(ct.AttrWildcard, "a.Name().Space")
			if cond == "true" {
				p("continue // attribute wildcard admits everything")
			} else {
				p("if %s { // attribute wildcard", cond)
				p("continue")
				p("}")
				p("s.Violate(path, fmt.Sprintf(\"attribute %%q is not declared for this element\", a.NodeName()))")
			}
		} else {
			p("s.Violate(path, fmt.Sprintf(\"attribute %%q is not declared for this element\", a.NodeName()))")
		}
	}
	if len(activeIdx) == 0 {
		unhandled()
		p("}")
	} else {
		p("handled := false")
		var arms []nameArm
		for _, i := range activeIdx {
			use := ct.AttributeUses[i]
			idx := i
			arms = append(arms, nameArm{space: use.Decl.Name.Space, local: use.Decl.Name.Local, body: func() {
				v.emitAttrArm(idx, use)
			}})
		}
		v.emitNameSwitch("a.Name().Space", "a.Name().Local", arms)
		p("if !handled {")
		unhandled()
		p("}")
		p("}")
	}
	for _, i := range activeIdx {
		use := ct.AttributeUses[i]
		if !use.Required {
			continue
		}
		p("if !seen%d {", i)
		p("s.Violate(path, %q)", fmt.Sprintf("required attribute %q is missing", use.Decl.Name.Local))
		p("}")
	}
}

// emitAttrArm prints the parse/fixed/ID-tracking checks of one attribute
// use, replaying run.attributes' per-attribute body.
func (v *valgen) emitAttrArm(idx int, use *xsd.AttributeUse) {
	p := v.p
	p("handled = true")
	if use.Required {
		p("seen%d = true", idx)
	}
	pf := v.parseFnFor(use.Decl.Type)
	tm := trackMethod(use.Decl.Type)
	if use.Fixed != nil {
		p("val, err := %s(a.Value())", pf)
		p("if err != nil {")
		p("s.Violate(path, fmt.Sprintf(\"attribute %%q: %%v\", a.NodeName(), err))")
		p("} else {")
		vv := v.valueVarFor(use.Decl.Type, *use.Fixed)
		p("if %sOK && !val.Equal(%s) {", vv, vv)
		p("s.Violate(path, fmt.Sprintf(\"attribute %%q must have the fixed value %%q\", a.NodeName(), %q))", *use.Fixed)
		p("}")
		if tm != "" {
			p("s.%s(a.Value(), path+\"/@\"+a.NodeName())", tm)
		}
		p("}")
		return
	}
	p("if _, err := %s(a.Value()); err != nil {", pf)
	p("s.Violate(path, fmt.Sprintf(\"attribute %%q: %%v\", a.NodeName(), err))")
	if tm != "" {
		p("} else {")
		p("s.%s(a.Value(), path+\"/@\"+a.NodeName())", tm)
	}
	p("}")
}

// emitContentValidate prints the content check of one complex type,
// dispatching on its static content kind.
func (v *valgen) emitContentValidate(ct *xsd.ComplexType) {
	p := v.p
	switch ct.Kind {
	case xsd.ContentSimple:
		p("for _, c := range el.ChildNodes() {")
		p("if _, ok := c.(*dom.Element); ok {")
		p("s.Violate(path, \"element content is not allowed in simple content\")")
		p("return")
		p("}")
		p("}")
		p("text := el.TextContent()")
		p("if _, err := %s(text); err != nil {", v.parseFnFor(ct.SimpleContentType))
		p("s.Violate(path, err.Error())")
		p("}")
		if tm := trackMethod(ct.SimpleContentType); tm != "" {
			p("s.%s(text, path)", tm)
		} else {
			p("_ = text")
		}
	case xsd.ContentEmpty:
		p("for _, c := range el.ChildNodes() {")
		p("switch x := c.(type) {")
		p("case *dom.Element:")
		p("s.Violate(path, fmt.Sprintf(\"element <%%s> is not allowed in empty content\", x.TagName()))")
		p("return")
		p("case *dom.Text:")
		p("if strings.TrimSpace(x.Data) != \"\" {")
		p("s.Violate(path, \"character data is not allowed in empty content\")")
		p("return")
		p("}")
		p("case *dom.CDATASection:")
		p("s.Violate(path, \"character data is not allowed in empty content\")")
		p("return")
		p("}")
		p("}")
	case xsd.ContentElementOnly, xsd.ContentMixed:
		mi := v.models[ct]
		if mi == nil || mi.table == nil {
			reason := "model not compiled"
			if mi != nil {
				reason = mi.fallback
			}
			p("// Interpreted content model (%s).", reason)
			p("s.ElementContent(el, %s, path)", v.typeVar[ct])
			return
		}
		v.emitModelValidate(ct, mi)
	}
}

// emitModelValidate prints the three-phase content walk: child collection
// with character-data checks, the unrolled DFA run, and per-child dispatch
// to the governing declaration's validate function.
func (v *valgen) emitModelValidate(ct *xsd.ComplexType, mi *modelInfo) {
	p := v.p
	p("var children []*dom.Element")
	p("for _, c := range el.ChildNodes() {")
	if ct.Kind == xsd.ContentElementOnly {
		p("switch x := c.(type) {")
		p("case *dom.Element:")
		p("children = append(children, x)")
		p("case *dom.Text:")
		p("if strings.TrimSpace(x.Data) != \"\" {")
		p("s.Violate(path, fmt.Sprintf(\"character data %%q is not allowed in element-only content\", validator.Snippet(x.Data)))")
		p("}")
		p("case *dom.CDATASection:")
		p("s.Violate(path, \"character data is not allowed in element-only content\")")
		p("}")
	} else {
		p("if x, ok := c.(*dom.Element); ok {")
		p("children = append(children, x)")
		p("}")
	}
	p("}")
	p("st := 0")
	p("leaves := make([]int, len(children))")
	p("for i, child := range children {")
	p("next, leaf := %sStep(st, child.NamespaceURI(), child.LocalName())", mi.name)
	p("if next < 0 {")
	p("s.Violate(validator.ChildPath(path, child), (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: child.NamespaceURI(), Local: child.LocalName()}, Expected: %sStepExp[st]}).Error())", mi.name)
	p("return")
	p("}")
	p("leaves[i] = leaf")
	p("st = next")
	p("}")
	if !mi.table.Nullable {
		p("if len(children) == 0 {")
		p("s.Violate(path, (&contentmodel.MatchError{Index: 0, Premature: true, Expected: %sEndExp[0]}).Error())", mi.name)
		p("return")
		p("}")
		p("if !%sAccept[st] {", mi.name)
	} else {
		p("if len(children) > 0 && !%sAccept[st] {", mi.name)
	}
	p("s.Violate(path, (&contentmodel.MatchError{Index: len(children), Premature: true, Expected: %sEndExp[st]}).Error())", mi.name)
	p("return")
	p("}")
	p("counts := map[string]int{}")
	p("for i, child := range children {")
	p("cpath := validator.ChildPathIndexed(path, child, counts)")
	p("switch leaves[i] {")
	for li, targets := range mi.dispatch {
		p("case %d:", li)
		switch {
		case targets == nil:
			p("gvValidateWild(s, child, cpath)")
		case len(targets) == 1:
			p("%s(s, child, cpath)", v.elemFn("gvElem", targets[0].decl))
		default:
			var arms []nameArm
			for _, t := range targets {
				decl := t.decl
				arms = append(arms, nameArm{space: t.space, local: t.local, body: func() {
					p("%s(s, child, cpath)", v.elemFn("gvElem", decl))
				}})
			}
			v.emitNameSwitch("child.NamespaceURI()", "child.LocalName()", arms)
		}
	}
	p("}")
	p("}")
}

// emitDecodeAPI prints Decode, DecodeBytes and JSON.
func (v *valgen) emitDecodeAPI() {
	p := v.p
	p("// Decode validates the document and, when valid, decodes it into a")
	p("// typed value on the specialized walk — same Value tree (and same")
	p("// JSON) as the generic Binder.")
	p("func Decode(doc *dom.Document) (*bind.Value, *validator.Result) {")
	p("res := Validate(doc)")
	p("if !res.OK() {")
	p("return nil, res")
	p("}")
	p("root := doc.DocumentElement()")
	p("if root == nil {")
	p("return nil, res")
	p("}")
	var arms []nameArm
	for _, d := range v.norm.Elements {
		decl := d
		arms = append(arms, nameArm{space: d.Name.Space, local: d.Name.Local, body: func() {
			p("val, err := %s(root, false)", v.elemFn("gvDec", decl))
			p("if err != nil {")
			p("return nil, &validator.Result{Violations: []validator.Violation{{Path: \"/\", Msg: \"bind: \" + err.Error()}}}")
			p("}")
			p("return val, res")
		}})
	}
	v.emitNameSwitch("root.NamespaceURI()", "root.LocalName()", arms)
	p("return nil, res")
	p("}")
	p("")
	p("// DecodeBytes parses, validates and decodes a serialized document.")
	p("func DecodeBytes(src []byte) (*bind.Value, *validator.Result) {")
	p("doc, err := dom.Parse(src)")
	p("if err != nil {")
	p("return nil, &validator.Result{Violations: []validator.Violation{{Path: \"/\", Msg: err.Error()}}}")
	p("}")
	p("return Decode(doc)")
	p("}")
	p("")
	p("// JSON renders a decoded value as canonical JSON (the binder's rules).")
	p("func JSON(v *bind.Value) []byte {")
	p("return gvBinder.JSON(v)")
	p("}")
	p("")
}

// decDelegates reports whether a declaration's decode function must
// delegate wholesale to the generic binder (pruned, or its content model
// stayed interpreted).
func (v *valgen) decDelegates(d *xsd.ElementDecl) bool {
	if !v.live(d) {
		return true
	}
	if ct, ok := d.Type.(*xsd.ComplexType); ok {
		if ct.Kind == xsd.ContentElementOnly || ct.Kind == xsd.ContentMixed {
			mi := v.models[ct]
			if mi == nil || mi.table == nil {
				return true
			}
		}
	}
	return false
}

// emitElemDecode prints the decode function of one declaration (the
// generic binder's decode of one element, specialized to it).
func (v *valgen) emitElemDecode(d *xsd.ElementDecl) {
	p := v.p
	fn := v.elemFn("gvDec", d)
	if v.decDelegates(d) {
		p("// %s decodes %s on the generic binder walk", fn, d.Name.String())
		p("// (pruned declaration or interpreted content model).")
		p("func %s(el *dom.Element, wild bool) (*bind.Value, error) {", fn)
		p("return gvBinder.DecodeElement(el, %s, wild)", v.declVar[d])
		p("}")
		p("")
		return
	}
	p("// %s decodes one validated element governed by %s.", fn, d.Name.String())
	p("func %s(el *dom.Element, wild bool) (*bind.Value, error) {", fn)
	p("// xsi:type substitutions take the generic path.")
	p("if el.GetAttributeNS(xsd.XSINamespace, \"type\") != \"\" {")
	p("return gvBinder.DecodeElement(el, %s, wild)", v.declVar[d])
	p("}")
	p("v := &bind.Value{Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()}, Wild: wild}")
	p("v.SetType(%s)", v.typeVar[d.Type])
	ct, isComplex := d.Type.(*xsd.ComplexType)
	if isComplex {
		p("v.Attrs = gvDecAttrs%s(el)", v.typeGo(ct))
	}
	p("if lex := el.GetAttributeNS(xsd.XSINamespace, \"nil\"); lex == \"true\" || lex == \"1\" {")
	p("v.Kind = bind.KindNil")
	p("return v, nil")
	p("}")
	if st, ok := d.Type.(*xsd.SimpleType); ok {
		p("text := el.TextContent()")
		if d.Fixed != nil {
			p("if text == \"\" {")
			p("text = %q", *d.Fixed)
			p("}")
		}
		if d.Default != nil {
			p("if text == \"\" {")
			p("text = %q", *d.Default)
			p("}")
		}
		p("val, err := %s(text)", v.parseFnFor(st))
		p("if err != nil {")
		p("return nil, err")
		p("}")
		p("v.Kind = bind.KindSimple")
		p("v.Simple = val")
		p("return v, nil")
		p("}")
		p("")
		return
	}
	switch ct.Kind {
	case xsd.ContentSimple:
		p("val, err := %s(el.TextContent())", v.parseFnFor(ct.SimpleContentType))
		p("if err != nil {")
		p("return nil, err")
		p("}")
		p("v.Kind = bind.KindSimple")
		p("v.Simple = val")
		p("return v, nil")
	case xsd.ContentEmpty:
		p("v.Kind = bind.KindEmpty")
		p("return v, nil")
	default:
		p("return v, gvDecBody%s(v, el)", v.typeGo(ct))
	}
	p("}")
	p("")
}

// emitTypeDecode prints the attribute-typing function of one complex type
// and, for element-only/mixed content with an exported model, the content
// decode body.
func (v *valgen) emitTypeDecode(ct *xsd.ComplexType) {
	v.emitDecAttrs(ct)
	if ct.Kind != xsd.ContentElementOnly && ct.Kind != xsd.ContentMixed {
		return
	}
	mi := v.models[ct]
	if mi == nil || mi.table == nil {
		return
	}
	v.emitDecBody(ct, mi)
}

// emitDecAttrs prints the typed-attribute builder of one complex type
// (bind.Binder.typedAttrs specialized to it).
func (v *valgen) emitDecAttrs(ct *xsd.ComplexType) {
	p := v.p
	fn := "gvDecAttrs" + v.typeGo(ct)
	p("// %s types the attributes of %s, materializing", fn, typeLabel(ct))
	p("// absent defaulted/fixed attributes like the generic binder.")
	p("func %s(el *dom.Element) []bind.Attr {", fn)
	p("var out []bind.Attr")
	var activeIdx, defIdx []int
	for i, use := range ct.AttributeUses {
		if use.Prohibited {
			continue
		}
		activeIdx = append(activeIdx, i)
		if use.Default != nil || use.Fixed != nil {
			defIdx = append(defIdx, i)
		}
	}
	for _, i := range defIdx {
		p("seen%d := false", i)
	}
	p("for _, a := range el.Attributes() {")
	p("if validator.IsMetaAttr(a) {")
	p("continue")
	p("}")
	p("name := xsd.QName{Space: a.Name().Space, Local: a.Name().Local}")
	stringAppend := func() {
		p("out = append(out, bind.Attr{Name: name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value()}})")
	}
	if len(activeIdx) == 0 {
		stringAppend()
		p("}")
	} else {
		p("handled := false")
		var arms []nameArm
		for _, i := range activeIdx {
			use := ct.AttributeUses[i]
			idx := i
			hasDef := use.Default != nil || use.Fixed != nil
			pf := v.parseFnFor(use.Decl.Type)
			arms = append(arms, nameArm{space: use.Decl.Name.Space, local: use.Decl.Name.Local, body: func() {
				p("handled = true")
				if hasDef {
					p("seen%d = true", idx)
				}
				p("if val, err := %s(a.Value()); err == nil {", pf)
				p("out = append(out, bind.Attr{Name: name, Value: val})")
				p("} else {")
				stringAppend()
				p("}")
			}})
		}
		v.emitNameSwitch("a.Name().Space", "a.Name().Local", arms)
		p("if !handled {")
		stringAppend()
		p("}")
		p("}")
	}
	for _, i := range defIdx {
		use := ct.AttributeUses[i]
		def := use.Default
		if def == nil {
			def = use.Fixed
		}
		vv := v.valueVarFor(use.Decl.Type, *def)
		p("if !seen%d && %sOK {", i, vv)
		p("out = append(out, bind.Attr{Name: xsd.QName{Space: %q, Local: %q}, Value: %s})", use.Decl.Name.Space, use.Decl.Name.Local, vv)
		p("}")
	}
	p("return out")
	p("}")
	p("")
}

// emitDecBody prints the content decode of one element-only or mixed
// complex type (the generic binder's child decode, specialized to its
// exported DFA).
func (v *valgen) emitDecBody(ct *xsd.ComplexType, mi *modelInfo) {
	p := v.p
	fn := "gvDecBody" + v.typeGo(ct)
	p("// %s decodes the child content of %s.", fn, typeLabel(ct))
	p("func %s(v *bind.Value, el *dom.Element) error {", fn)
	p("kids := el.ChildNodes()")
	p("var elems []*dom.Element")
	p("for _, k := range kids {")
	p("if e, ok := k.(*dom.Element); ok {")
	p("elems = append(elems, e)")
	p("}")
	p("}")
	p("st := 0")
	p("leaves := make([]int, len(elems))")
	p("for i, e := range elems {")
	p("next, leaf := %sStep(st, e.NamespaceURI(), e.LocalName())", mi.name)
	p("if next < 0 {")
	p("return fmt.Errorf(\"content model rejected validated children: %%s\", (&contentmodel.MatchError{Index: i, Got: contentmodel.Symbol{Space: e.NamespaceURI(), Local: e.LocalName()}, Expected: %sStepExp[st]}).Error())", mi.name)
	p("}")
	p("leaves[i] = leaf")
	p("st = next")
	p("}")
	if !mi.table.Nullable {
		p("if len(elems) == 0 {")
		p("return fmt.Errorf(\"content model rejected validated children: %%s\", (&contentmodel.MatchError{Index: 0, Premature: true, Expected: %sEndExp[0]}).Error())", mi.name)
		p("}")
		p("if !%sAccept[st] {", mi.name)
	} else {
		p("if len(elems) > 0 && !%sAccept[st] {", mi.name)
	}
	p("return fmt.Errorf(\"content model rejected validated children: %%s\", (&contentmodel.MatchError{Index: len(elems), Premature: true, Expected: %sEndExp[st]}).Error())", mi.name)
	p("}")
	p("vals := make([]*bind.Value, len(elems))")
	p("for i, e := range elems {")
	p("var cv *bind.Value")
	p("var err error")
	p("switch leaves[i] {")
	for li, targets := range mi.dispatch {
		p("case %d:", li)
		switch {
		case targets == nil:
			p("cv, err = gvDecodeWild(e)")
		case len(targets) == 1:
			p("cv, err = %s(e, false)", v.elemFn("gvDec", targets[0].decl))
		default:
			var arms []nameArm
			for _, t := range targets {
				decl := t.decl
				arms = append(arms, nameArm{space: t.space, local: t.local, body: func() {
					p("cv, err = %s(e, false)", v.elemFn("gvDec", decl))
				}})
			}
			v.emitNameSwitch("e.NamespaceURI()", "e.LocalName()", arms)
		}
	}
	p("}")
	p("if err != nil {")
	p("return err")
	p("}")
	p("vals[i] = cv")
	p("}")
	if ct.Kind == xsd.ContentMixed {
		p("v.Kind = bind.KindMixed")
		p("ei := 0")
		p("for _, k := range kids {")
		p("switch n := k.(type) {")
		p("case *dom.Element:")
		p("v.Segments = append(v.Segments, bind.Segment{Child: vals[ei]})")
		p("ei++")
		p("case *dom.Text:")
		p("v.Segments = bind.AppendText(v.Segments, n.Data)")
		p("case *dom.CDATASection:")
		p("v.Segments = bind.AppendText(v.Segments, n.Data)")
		p("}")
		p("}")
		p("return nil")
	} else {
		p("v.Kind = bind.KindStruct")
		p("v.Children = vals")
		p("return nil")
	}
	p("}")
	p("")
}

// emitMarshal prints Marshal, which is the binder's: its one walk writes
// the document and validates what it writes, so nothing is parsed back.
func (v *valgen) emitMarshal() {
	p := v.p
	p("// Marshal serializes a value as schema-valid XML (the binder's rules")
	p("// and error surface).")
	p("func Marshal(v *bind.Value) ([]byte, error) {")
	p("return gvBinder.Marshal(v)")
	p("}")
	p("")
}

// emitWildHelpers prints the lax wildcard dispatchers: validate known
// globals (accept everything else), decode known globals (raw otherwise).
func (v *valgen) emitWildHelpers() {
	p := v.p
	p("// gvValidateWild validates a wildcard-admitted element laxly: known")
	p("// global declarations validate, anything else is accepted.")
	p("func gvValidateWild(s *validator.Sink, child *dom.Element, cpath string) {")
	var varms []nameArm
	for _, d := range v.norm.Elements {
		decl := d
		varms = append(varms, nameArm{space: d.Name.Space, local: d.Name.Local, body: func() {
			p("%s(s, child, cpath)", v.elemFn("gvElem", decl))
		}})
	}
	v.emitNameSwitch("child.NamespaceURI()", "child.LocalName()", varms)
	p("}")
	p("")
	p("// gvDecodeWild decodes a wildcard-admitted element: known global")
	p("// declarations decode typed (wild), anything else is kept raw.")
	p("func gvDecodeWild(e *dom.Element) (*bind.Value, error) {")
	var darms []nameArm
	for _, d := range v.norm.Elements {
		decl := d
		darms = append(darms, nameArm{space: d.Name.Space, local: d.Name.Local, body: func() {
			p("return %s(e, true)", v.elemFn("gvDec", decl))
		}})
	}
	v.emitNameSwitch("e.NamespaceURI()", "e.LocalName()", darms)
	p("return &bind.Value{Name: xsd.QName{Space: e.NamespaceURI(), Local: e.LocalName()}, Kind: bind.KindRaw, Wild: true, Raw: dom.ToString(e)}, nil")
	p("}")
	p("")
}
