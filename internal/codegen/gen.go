package codegen

import (
	"fmt"
	"go/format"
	"sort"
	"strings"

	"repro/internal/normalize"
	"repro/internal/xsd"
)

// Options configures generation.
type Options struct {
	// Package is the Go package name of the generated file.
	Package string
	// Scheme is the normalization naming scheme (SchemePaper default).
	Scheme normalize.Scheme
	// SchemaComment names the schema in the generated header.
	SchemaComment string
}

// Generate parses the schema source and emits the V-DOM bindings as a
// single gofmt-style Go source file.
func Generate(schemaSource string, opts Options) (string, error) {
	schema, err := xsd.ParseString(schemaSource, nil)
	if err != nil {
		return "", err
	}
	norm, err := normalize.Normalize(schema, opts.Scheme)
	if err != nil {
		return "", err
	}
	names := AssignNames(norm)
	g := &generator{
		schema: schema,
		norm:   norm,
		names:  names,
		opts:   opts,
		src:    schemaSource,
	}
	code, err := g.run()
	if err != nil {
		return "", err
	}
	formatted, err := format.Source([]byte(code))
	if err != nil {
		// A formatting failure means the generator emitted invalid Go;
		// return the raw text so the caller can diagnose it.
		return code, fmt.Errorf("codegen: generated code does not parse: %w", err)
	}
	return string(formatted), nil
}

// generator carries emission state.
type generator struct {
	schema *xsd.Schema
	norm   *normalize.Result
	names  *Names
	opts   Options
	src    string
	buf    strings.Builder
	err    error
}

func (g *generator) p(format string, args ...any) {
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteByte('\n')
}

func (g *generator) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("codegen: "+format, args...)
	}
}

func (g *generator) run() (string, error) {
	g.header()
	g.simpleTypes()
	g.anyElement()
	g.groups()
	g.complexTypes()
	g.elements()
	if g.err != nil {
		return "", g.err
	}
	return g.buf.String(), nil
}

// normName returns the normalization name of a type (the key the runtime
// resolves components by).
func (g *generator) normName(t xsd.Type) string {
	n, ok := g.norm.TypeName(t)
	if !ok {
		g.fail("type %v has no normalized name", t.TypeName())
	}
	return n
}

func (g *generator) header() {
	g.p("// Code generated by vdomgen from %s. DO NOT EDIT.", g.opts.SchemaComment)
	g.p("//")
	g.p("// V-DOM bindings (paper: Kempa & Linnemann, EDBT 2002): one distinct Go")
	g.p("// type per element declaration, type definition and model group of the")
	g.p("// schema. Trees built through this API are schema-valid by construction;")
	g.p("// occurrence counts, required attributes and simple-type facets are")
	g.p("// checked when the tree is written (vdom.AppendXML).")
	g.p("package %s", g.opts.Package)
	g.p("")
	g.p("import (")
	g.p("\t\"strings\"")
	g.p("")
	g.p("\t\"repro/internal/dom\"")
	g.p("\t\"repro/internal/normalize\"")
	g.p("\t\"repro/internal/vdom\"")
	g.p(")")
	g.p("")
	g.p("// SchemaSource is the XML Schema these bindings were generated from.")
	g.p("const SchemaSource = %q", g.src)
	g.p("")
	g.p("// RT resolves generated names back to their schema components.")
	g.p("var RT = vdom.MustRuntime(SchemaSource, normalize.%s)", schemeConst(g.opts.Scheme))
	g.p("")
	g.p("// Document is the typed factory for documents of this schema (the")
	g.p("// paper's purchaseOrderDocument style object).")
	g.p("type Document struct{}")
	g.p("")
	g.p("// NewDocument creates a typed document factory.")
	g.p("func NewDocument() *Document { return &Document{} }")
	g.p("")
}

func schemeConst(s normalize.Scheme) string {
	switch s {
	case normalize.SchemeSynthesized:
		return "SchemeSynthesized"
	case normalize.SchemeInherited:
		return "SchemeInherited"
	default:
		return "SchemePaper"
	}
}

// simpleTypes emits a named string type per user-defined simple type.
func (g *generator) simpleTypes() {
	for _, ti := range sortedTypes(g.norm) {
		if _, ok := ti.Type.(*xsd.SimpleType); !ok {
			continue
		}
		tn := g.names.Types[ti.Type]
		g.p("// %s is the simple type %q (V-DOM interface %s).", tn.GoType, ti.Name, tn.VDOM)
		g.p("type %s string", tn.GoType)
		g.p("")
		g.p("// New%s validates a lexical value against the facets of %q.", tn.GoType, ti.Name)
		g.p("func New%s(lexical string) (%s, error) {", tn.GoType, tn.GoType)
		g.p("\tif err := RT.CheckSimple(%q, lexical); err != nil {", ti.Name)
		g.p("\t\treturn \"\", err")
		g.p("\t}")
		g.p("\treturn %s(lexical), nil", tn.GoType)
		g.p("}")
		g.p("")
		g.p("// Must%s is New%s for values known to be valid; it panics on error.", tn.GoType, tn.GoType)
		g.p("func Must%s(lexical string) %s {", tn.GoType, tn.GoType)
		g.p("\tv, err := New%s(lexical)", tn.GoType)
		g.p("\tif err != nil {")
		g.p("\t\tpanic(err)")
		g.p("\t}")
		g.p("\treturn v")
		g.p("}")
		g.p("")
	}
}

// anyElement emits the wildcard wrapper used for xs:any positions.
func (g *generator) anyElement() {
	g.p("// AnyElement wraps a raw DOM element for wildcard (xs:any) positions.")
	g.p("type AnyElement struct{ El *dom.Element }")
	g.p("")
	g.p("// NewAnyElement wraps a raw element.")
	g.p("func NewAnyElement(el *dom.Element) *AnyElement { return &AnyElement{El: el} }")
	g.p("")
	g.p("// VDOMName implements vdom.Node.")
	g.p("func (a *AnyElement) VDOMName() string { return \"anyElement\" }")
	g.p("")
	g.p("// XMLQName implements vdom.NamedElement.")
	g.p("func (a *AnyElement) XMLQName() (string, string) { return a.El.Name().Space, a.El.LocalName() }")
	g.p("")
	g.p("// WriteXML implements vdom.ElementNode.")
	g.p("func (a *AnyElement) WriteXML(w *vdom.Writer) error {")
	g.p("\tw.Raw(a.El)")
	g.p("\treturn nil")
	g.p("}")
	g.p("")
	g.p("// DumpInto implements vdom.Dumper.")
	g.p("func (a *AnyElement) DumpInto(sb *strings.Builder, depth int) {")
	g.p("\tvdom.Indent(sb, depth)")
	g.p("\tsb.WriteString(\"anyElement \" + a.El.TagName() + \"\\n\")")
	g.p("}")
	g.p("")
}

// groups emits sealed interfaces for choices and structs for promoted
// sequence groups.
func (g *generator) groups() {
	for _, gi := range g.norm.Groups {
		gn := g.names.Groups[gi.Group]
		if gi.Group.Kind == xsd.Choice {
			g.choiceGroup(gi, gn)
		} else {
			g.seqGroup(gi, gn)
		}
	}
}

// choiceGroup emits the sealed interface of a choice (paper Fig. 6) plus
// the marker methods of its alternatives.
func (g *generator) choiceGroup(gi normalize.GroupInfo, gn GroupNames) {
	g.p("// %s is the sealed choice group %s of type %s (paper Fig. 6:", gn.GoType, particleLabel(gi.Group), g.ownerName(gi))
	g.p("// a super-interface per choice, alternatives implement it).")
	g.p("type %s interface {", gn.GoType)
	g.p("\tvdom.ElementNode")
	g.p("\t%s()", gn.Marker)
	g.p("}")
	g.p("")
	for _, alt := range g.elementTypes(gi.Group.Particles, false) {
		g.p("func (%s) %s() {}", alt, gn.Marker)
	}
	g.p("")
}

// elementTypes collects, sorted, the concrete Go types that may stand
// for the particles: element wrappers with their substitution-group
// members and AnyElement for wildcards, recursing into nested choices
// and, when flat, into sequences (otherwise a nested sequence is its
// promoted group type).
func (g *generator) elementTypes(particles []*xsd.Particle, flat bool) []string {
	seen := map[string]bool{}
	var walk func(ps []*xsd.Particle)
	walk = func(ps []*xsd.Particle) {
		for _, p := range ps {
			switch {
			case p == nil:
			case p.Element != nil:
				seen["*"+g.names.Elements[p.Element].GoType] = true
				for _, m := range g.schema.SubstitutionMembers(p.Element.Name) {
					seen["*"+g.names.Elements[m].GoType] = true
				}
			case p.Wildcard != nil:
				seen["*AnyElement"] = true
			case p.Group != nil && (flat || p.Group.Kind == xsd.Choice):
				walk(p.Group.Particles)
			case p.Group != nil:
				seen["*"+g.names.Groups[p.Group].GoType] = true
			}
		}
	}
	walk(particles)
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func (g *generator) ownerName(gi normalize.GroupInfo) string {
	if gi.Owner != nil {
		return g.names.Types[gi.Owner].GoType
	}
	return "?"
}

// particleLabel renders a short description of group members.
func particleLabel(grp *xsd.ModelGroup) string {
	var parts []string
	for _, p := range grp.Particles {
		switch {
		case p.Element != nil:
			parts = append(parts, p.Element.Name.Local)
		case p.Group != nil:
			parts = append(parts, "(...)")
		case p.Wildcard != nil:
			parts = append(parts, "any")
		}
	}
	sep := ", "
	if grp.Kind == xsd.Choice {
		sep = " | "
	}
	return "{" + strings.Join(parts, sep) + "}"
}

// seqGroup emits the struct of a promoted sequence group.
func (g *generator) seqGroup(gi normalize.GroupInfo, gn GroupNames) {
	members, err := g.names.MembersOfGroup(gi.Group, gn.GoType)
	if err != nil {
		g.fail("%v", err)
		return
	}
	g.p("// %s is the sequence group %s promoted from type %s.", gn.GoType, particleLabel(gi.Group), g.ownerName(gi))
	g.p("type %s struct {", gn.GoType)
	g.memberFields(members)
	g.p("}")
	g.p("")
	g.constructor(gn.Create, gn.GoType, members)
	g.memberMethods(gn.GoType, members)
	g.p("// WriteXML writes the group's members into the open element (a group")
	g.p("// has no wrapper element of its own).")
	g.p("func (t *%s) WriteXML(w *vdom.Writer) error {", gn.GoType)
	g.p("\tif w.Depth() == 0 {")
	g.p("\t\treturn vdom.Required(%q, \"an element parent\")", gn.GoType)
	g.p("\t}")
	g.writeMembers(gn.GoType, members)
	g.p("\treturn nil")
	g.p("}")
	g.p("")
	g.nodeMethods("t", gn.GoType, lowerFirst(gn.GoType), func() { g.dumpMembers(members) })
}

// memberFields emits the struct fields for members.
func (g *generator) memberFields(members []Member) {
	for _, m := range members {
		typ := g.memberGoType(&m)
		if m.Repeated() {
			g.p("\t%s []%s", m.Field, typ)
		} else {
			g.p("\t%s %s", m.Field, typ)
		}
	}
}

// memberGoType returns the Go type of one occurrence of the member.
func (g *generator) memberGoType(m *Member) string {
	switch m.Kind {
	case MemberElement:
		return g.names.ElementSlotType(m.Elem)
	case MemberChoice:
		return g.names.Groups[m.Group].GoType
	case MemberSeqGroup:
		return "*" + g.names.Groups[m.Group].GoType
	default:
		return "*AnyElement"
	}
}

// constructor emits the Create method: required single members become
// parameters.
func (g *generator) constructor(createName, goType string, members []Member) {
	var params, assigns []string
	for i := range members {
		m := &members[i]
		if !m.Repeated() && !m.Optional() {
			params = append(params, fmt.Sprintf("%s %s", m.Field, g.memberGoType(m)))
			assigns = append(assigns, fmt.Sprintf("%s: %s", m.Field, m.Field))
		}
	}
	g.p("// %s constructs a %s with its required members;", createName, goType)
	g.p("// optional and repeated members are added with the Set/Add methods.")
	g.p("func (d *Document) %s(%s) *%s {", createName, strings.Join(params, ", "), goType)
	if len(assigns) == 0 {
		g.p("\treturn &%s{}", goType)
	} else {
		g.p("\treturn &%s{%s}", goType, strings.Join(assigns, ", "))
	}
	g.p("}")
	g.p("")
}

// memberMethods emits Set/Add methods and getters.
func (g *generator) memberMethods(goType string, members []Member) {
	for i := range members {
		m := &members[i]
		typ := g.memberGoType(m)
		switch {
		case m.Repeated():
			g.p("// Add%s appends a %s member (schema occurrence %s).", m.Accessor, m.Field, occursLabel(m.Min, m.Max))
			g.p("func (t *%s) Add%s(v %s) *%s {", goType, m.Accessor, typ, goType)
			g.p("\tt.%s = append(t.%s, v)", m.Field, m.Field)
			g.p("\treturn t")
			g.p("}")
			g.p("")
			g.p("// %s returns the %s members added so far.", m.Accessor, m.Field)
			g.p("func (t *%s) %s() []%s { return t.%s }", goType, m.Accessor, typ, m.Field)
			g.p("")
		case m.Optional():
			g.p("// Set%s sets the optional %s member.", m.Accessor, m.Field)
			g.p("func (t *%s) Set%s(v %s) *%s {", goType, m.Accessor, typ, goType)
			g.p("\tt.%s = v", m.Field)
			g.p("\treturn t")
			g.p("}")
			g.p("")
			g.p("// %s returns the %s member (nil when unset).", m.Accessor, m.Field)
			g.p("func (t *%s) %s() %s { return t.%s }", goType, m.Accessor, typ, m.Field)
			g.p("")
		default:
			g.p("// %s returns the required %s member.", m.Accessor, m.Field)
			g.p("func (t *%s) %s() %s { return t.%s }", goType, m.Accessor, typ, m.Field)
			g.p("")
		}
	}
}

func occursLabel(min, max int) string {
	if max == xsd.Unbounded {
		return fmt.Sprintf("%d..unbounded", min)
	}
	return fmt.Sprintf("%d..%d", min, max)
}

// writeMembers emits the statements writing members in order, with
// occurrence and requiredness checks.
func (g *generator) writeMembers(context string, members []Member) {
	for i := range members {
		m := &members[i]
		switch {
		case m.Repeated():
			g.p("\tif err := vdom.CheckOccurs(%q, len(t.%s), %d, %d); err != nil {", context+"."+m.Field, m.Field, m.Min, m.Max)
			g.p("\t\treturn err")
			g.p("\t}")
			g.p("\tfor _, c := range t.%s {", m.Field)
			g.p("\t\tif err := c.WriteXML(w); err != nil {")
			g.p("\t\t\treturn err")
			g.p("\t\t}")
			g.p("\t}")
		case m.Optional():
			g.p("\tif t.%s != nil {", m.Field)
			g.p("\t\tif err := t.%s.WriteXML(w); err != nil {", m.Field)
			g.p("\t\t\treturn err")
			g.p("\t\t}")
			g.p("\t}")
		default:
			g.p("\tif t.%s == nil {", m.Field)
			g.p("\t\treturn vdom.Required(%q, %q)", context, m.Field)
			g.p("\t}")
			g.p("\tif err := t.%s.WriteXML(w); err != nil {", m.Field)
			g.p("\t\treturn err")
			g.p("\t}")
		}
	}
}

// nodeMethods emits VDOMName and the Fig. 7 style DumpInto, which
// writes the node's name and then what dump emits.
func (g *generator) nodeMethods(recv, goType, vdomName string, dump func()) {
	g.p("// VDOMName implements vdom.Node.")
	g.p("func (%s *%s) VDOMName() string { return %q }", recv, goType, vdomName)
	g.p("")
	g.p("// DumpInto renders the typed node (paper Fig. 7 view).")
	g.p("func (%s *%s) DumpInto(sb *strings.Builder, depth int) {", recv, goType)
	g.p("\tvdom.Indent(sb, depth)")
	g.p("\tsb.WriteString(%q + \"\\n\")", vdomName)
	dump()
	g.p("}")
	g.p("")
}

// dumpText emits the dump of a node's character content.
func (g *generator) dumpText(recv string) {
	g.p("\tvdom.Indent(sb, depth+1)")
	g.p("\tsb.WriteString(\"Text \" + %s.value + \"\\n\")", recv)
}

// dumpMembers emits the dump of the members that are set.
func (g *generator) dumpMembers(members []Member) {
	for _, m := range members {
		if m.Repeated() {
			g.p("\tfor _, c := range t.%s {", m.Field)
			g.p("\t\tdumpChild(sb, depth+1, c)")
			g.p("\t}")
		} else {
			g.p("\tif t.%s != nil {", m.Field)
			g.p("\t\tdumpChild(sb, depth+1, t.%s)", m.Field)
			g.p("\t}")
		}
	}
}

// complexTypes emits the struct (or mixed/simple-content variants) per
// complex type.
func (g *generator) complexTypes() {
	g.p("// dumpChild renders any child node in a dump.")
	g.p("func dumpChild(sb *strings.Builder, depth int, n vdom.Node) {")
	g.p("\tif d, ok := n.(vdom.Dumper); ok {")
	g.p("\t\td.DumpInto(sb, depth)")
	g.p("\t\treturn")
	g.p("\t}")
	g.p("\tvdom.Indent(sb, depth)")
	g.p("\tsb.WriteString(n.VDOMName() + \"\\n\")")
	g.p("}")
	g.p("")
	for _, ti := range sortedTypes(g.norm) {
		ct, ok := ti.Type.(*xsd.ComplexType)
		if !ok {
			continue
		}
		g.complexType(ti, ct)
	}
}

func (g *generator) complexType(ti normalize.TypeInfo, ct *xsd.ComplexType) {
	tn := g.names.Types[ct]
	normName := ti.Name
	api, err := g.names.APIAttrsAndMembers(ct)
	if err != nil {
		g.fail("%v", err)
		return
	}
	members, attrs := api.Members, api.Attrs

	// Derivation interface (type extension -> inheritance, paper §3).
	if tn.Iface != "" {
		g.p("// %s is satisfied by %s and every type derived from it", tn.Iface, tn.GoType)
		g.p("// (paper: type extension and restriction map to inheritance).")
		g.p("type %s interface {", tn.Iface)
		g.p("\tvdom.Node")
		g.p("\tis%s()", tn.GoType)
		g.p("\twriteContent(w *vdom.Writer) error")
		g.p("\txsiName() string")
		g.p("}")
		g.p("")
	}

	var dump func()
	switch ct.Kind {
	case xsd.ContentSimple:
		g.p("// %s is complex type %q: simple content with attributes.", tn.GoType, normName)
		g.p("type %s struct {", tn.GoType)
		g.p("\tvalue string")
		for _, a := range attrs {
			g.p("\t%s *string", a.Field)
		}
		g.p("}")
		g.p("")
		g.p("// %s constructs the type, validating the character content.", tn.Create)
		g.p("func (d *Document) %s(lexical string) (*%s, error) {", tn.Create, tn.GoType)
		g.p("\tif err := RT.CheckSimpleContent(%q, lexical); err != nil {", normName)
		g.p("\t\treturn nil, err")
		g.p("\t}")
		g.p("\treturn &%s{value: lexical}, nil", tn.GoType)
		g.p("}")
		g.p("")
		g.p("// Value returns the character content.")
		g.p("func (t *%s) Value() string { return t.value }", tn.GoType)
		g.p("")
		dump = func() { g.dumpText("t") }
	case xsd.ContentMixed:
		memberIface := tn.GoType + "Member"
		g.p("// %s is complex type %q (mixed content: character data may", tn.GoType, normName)
		g.p("// interleave with child elements; order and occurrence are checked")
		g.p("// against the content model when the tree is written).")
		g.p("type %s struct {", tn.GoType)
		g.p("\tvdom.MixedContent")
		for _, a := range attrs {
			g.p("\t%s *string", a.Field)
		}
		g.p("}")
		g.p("")
		g.p("// %s is the sealed set of element types admitted inside %s.", memberIface, tn.GoType)
		g.p("type %s interface {", memberIface)
		g.p("\tvdom.NamedElement")
		g.p("\tis%s()", memberIface)
		g.p("}")
		g.p("")
		for _, alt := range g.elementTypes([]*xsd.Particle{ct.Particle}, true) {
			g.p("func (%s) is%s() {}", alt, memberIface)
		}
		g.p("")
		g.p("// %s constructs an empty mixed-content value.", tn.Create)
		g.p("func (d *Document) %s() *%s { return &%s{} }", tn.Create, tn.GoType, tn.GoType)
		g.p("")
		g.p("// Add appends a typed child element.")
		g.p("func (t *%s) Add(child %s) *%s {", tn.GoType, memberIface, tn.GoType)
		g.p("\tt.AddNode(child)")
		g.p("\treturn t")
		g.p("}")
		g.p("")
		g.p("// Text appends character data and returns the value for chaining.")
		g.p("func (t *%s) Text(s string) *%s {", tn.GoType, tn.GoType)
		g.p("\tt.AddText(s)")
		g.p("\treturn t")
		g.p("}")
		g.p("")
		dump = func() { g.p("\tvdom.DumpMixed(&t.MixedContent, sb, depth+1)") }
	default: // ContentElementOnly, ContentEmpty
		g.p("// %s is complex type %q (V-DOM interface %s).", tn.GoType, normName, tn.VDOM)
		g.p("type %s struct {", tn.GoType)
		g.memberFields(members)
		for _, a := range attrs {
			g.p("\t%s *string", a.Field)
		}
		g.p("}")
		g.p("")
		if !ct.Abstract {
			g.constructor(tn.Create, tn.GoType, members)
		} else {
			g.p("// %s is abstract: no constructor is generated; use a concrete", tn.GoType)
			g.p("// derived type (paper §3: abstract types map to abstract interfaces).")
			g.p("")
		}
		g.memberMethods(tn.GoType, members)
		dump = func() { g.dumpMembers(members) }
	}
	g.attrMethods(tn.GoType, normName, attrs)
	g.p("func (t *%s) writeContent(w *vdom.Writer) error {", tn.GoType)
	g.writeAttrs(tn.GoType, attrs)
	switch ct.Kind {
	case xsd.ContentSimple:
		g.p("\tw.Text(t.value)")
		g.p("\treturn nil")
	case xsd.ContentMixed:
		g.p("\treturn RT.WriteMixed(w, &t.MixedContent, %q)", normName)
	default:
		g.writeMembers(tn.GoType, members)
		g.p("\treturn nil")
	}
	g.p("}")
	g.p("")
	g.nodeMethods("t", tn.GoType, tn.VDOM, dump)

	// Derivation markers: this type implements the iface of every
	// ancestor (and its own, if it has one).
	g.p("func (t *%s) xsiName() string { return %q }", tn.GoType, xsiNameOf(ct))
	g.p("")
	for anc := xsd.Type(ct); anc != nil; anc = anc.BaseType() {
		if _, ok := anc.(*xsd.ComplexType); !ok {
			break
		}
		atn, known := g.names.Types[anc]
		if !known {
			continue // anyType etc.
		}
		if atn.Iface != "" {
			g.p("func (t *%s) is%s() {}", tn.GoType, atn.GoType)
		}
	}
	g.p("")
}

// xsiNameOf returns the schema-level type name for xsi:type emission ("",
// for anonymous promoted types, which cannot be referenced by xsi:type).
func xsiNameOf(ct *xsd.ComplexType) string {
	if ct.Name.IsZero() {
		return ""
	}
	return ct.Name.Local
}

// attrMethods emits Set/Get per attribute with runtime validation.
func (g *generator) attrMethods(goType, normName string, attrs []AttrMember) {
	for _, a := range attrs {
		local := a.Use.Decl.Name.Local
		g.p("// Set%s validates and sets the %q attribute (type %s).", a.Accessor, local, attrTypeLabel(a.Use))
		g.p("func (t *%s) Set%s(lexical string) error {", goType, a.Accessor)
		g.p("\tif err := RT.CheckAttr(%q, %q, lexical); err != nil {", normName, local)
		g.p("\t\treturn err")
		g.p("\t}")
		g.p("\tt.%s = &lexical", a.Field)
		g.p("\treturn nil")
		g.p("}")
		g.p("")
		g.p("// %s returns the %q attribute and whether it is set.", a.Accessor, local)
		g.p("func (t *%s) %s() (string, bool) {", goType, a.Accessor)
		g.p("\tif t.%s == nil {", a.Field)
		g.p("\t\treturn \"\", false")
		g.p("\t}")
		g.p("\treturn *t.%s, true", a.Field)
		g.p("}")
		g.p("")
	}
}

func attrTypeLabel(use *xsd.AttributeUse) string {
	if use.Decl.Type.Name.IsZero() {
		return "anonymous"
	}
	return use.Decl.Type.Name.Local
}

// writeAttrs emits the statements writing attributes into the open start
// tag, failing on a missing required one.
func (g *generator) writeAttrs(context string, attrs []AttrMember) {
	for _, a := range attrs {
		local := a.Use.Decl.Name.Local
		g.p("\tif t.%s != nil {", a.Field)
		g.p("\t\tw.Attr(%q, *t.%s)", local, a.Field)
		if a.Use.Required {
			g.p("\t} else {")
			g.p("\t\treturn vdom.Required(%q, \"attribute %s\")", context, local)
		}
		g.p("\t}")
	}
}

// elements emits the wrapper type per element declaration.
func (g *generator) elements() {
	for _, decl := range g.names.ElementsInOrder {
		g.element(decl)
	}
}

func (g *generator) element(decl *xsd.ElementDecl) {
	en := g.names.Elements[decl]
	// Substitution interface for heads.
	if en.Subst != "" {
		g.p("// %s is satisfied by %s and its substitution-group members", en.Subst, en.GoType)
		g.p("// (paper §3: substitution groups map to inheritance).")
		g.p("type %s interface {", en.Subst)
		g.p("\tvdom.NamedElement")
		g.p("\tis%s()", en.Subst)
		g.p("}")
		g.p("")
		g.p("func (*%s) is%s() {}", en.GoType, en.Subst)
		for _, m := range g.schema.SubstitutionMembers(decl.Name) {
			g.p("func (*%s) is%s() {}", g.names.Elements[m].GoType, en.Subst)
		}
		g.p("")
	}

	switch t := decl.Type.(type) {
	case *xsd.SimpleType:
		g.simpleElement(decl, en, t)
	case *xsd.ComplexType:
		if g.isAnyType(t) {
			g.anyTypedElement(decl, en)
		} else {
			g.complexElement(decl, en, t)
		}
	}
}

func (g *generator) isAnyType(ct *xsd.ComplexType) bool {
	return ct.Name.Space == xsd.XSDNamespace && ct.Name.Local == "anyType"
}

// simpleElement emits a wrapper for an element with simple-type content.
func (g *generator) simpleElement(decl *xsd.ElementDecl, en ElemNames, st *xsd.SimpleType) {
	g.p("// %s represents element <%s> (V-DOM interface %s); its content", en.GoType, decl.Name.Local, en.VDOM)
	g.p("// is the simple type %s.", simpleTypeLabel(st))
	g.p("type %s struct{ value string }", en.GoType)
	g.p("")
	check, fallible := g.simpleCheckExpr(st)
	if decl.Abstract {
		g.p("// <%s> is abstract: only substitution-group members appear in", decl.Name.Local)
		g.p("// instances, so no constructor is generated.")
		g.p("")
	} else if fallible {
		g.p("// %s validates the value and creates the element.", en.Create)
		g.p("func (d *Document) %s(value string) (*%s, error) {", en.Create, en.GoType)
		g.p("\tif err := %s; err != nil {", check)
		g.p("\t\treturn nil, err")
		g.p("\t}")
		g.p("\treturn &%s{value: value}, nil", en.GoType)
		g.p("}")
		g.p("")
		g.p("// Must%s panics on an invalid value.", strings.TrimPrefix(en.Create, "Create"))
		g.p("func (d *Document) Must%s(value string) *%s {", strings.TrimPrefix(en.Create, "Create"), en.GoType)
		g.p("\te, err := d.%s(value)", en.Create)
		g.p("\tif err != nil {")
		g.p("\t\tpanic(err)")
		g.p("\t}")
		g.p("\treturn e")
		g.p("}")
		g.p("")
	} else {
		g.p("// %s creates the element (its string content cannot be invalid).", en.Create)
		g.p("func (d *Document) %s(value string) *%s {", en.Create, en.GoType)
		g.p("\treturn &%s{value: value}", en.GoType)
		g.p("}")
		g.p("")
	}
	g.p("// Value returns the element's character content.")
	g.p("func (e *%s) Value() string { return e.value }", en.GoType)
	g.p("")
	g.elementMethods(decl, en, func() {
		g.p("\tw.Start(%q, %q)", decl.Name.Space, decl.Name.Local)
		g.p("\tw.Text(e.value)")
		g.p("\tw.End()")
		g.p("\treturn nil")
	}, func() { g.dumpText("e") })
}

// simpleCheckExpr returns the runtime check expression for a simple type
// and whether it can fail.
func (g *generator) simpleCheckExpr(st *xsd.SimpleType) (string, bool) {
	if name, ok := g.norm.TypeName(st); ok {
		return fmt.Sprintf("RT.CheckSimple(%q, value)", name), true
	}
	if st.Builtin != nil {
		switch st.Builtin.Name {
		case "string", "normalizedString", "token", "anySimpleType":
			return "", false
		}
		return fmt.Sprintf("vdom.CheckBuiltin(%q, value)", st.Builtin.Name), true
	}
	return "", false
}

func simpleTypeLabel(st *xsd.SimpleType) string {
	if !st.Name.IsZero() {
		if st.Name.Space == xsd.XSDNamespace {
			return "xsd:" + st.Name.Local
		}
		return st.Name.Local
	}
	return "an anonymous restriction"
}

// complexElement emits a wrapper for an element with complex content.
func (g *generator) complexElement(decl *xsd.ElementDecl, en ElemNames, ct *xsd.ComplexType) {
	tn := g.names.Types[ct]
	contentType := "*" + tn.GoType
	usesIface := tn.Iface != ""
	if usesIface {
		contentType = tn.Iface
	}
	g.p("// %s represents element <%s> (V-DOM interface %s); its content", en.GoType, decl.Name.Local, en.VDOM)
	g.p("// is complex type %s.", tn.GoType)
	g.p("type %s struct{ content %s }", en.GoType, contentType)
	g.p("")
	if decl.Abstract {
		g.p("// <%s> is abstract: only substitution-group members appear in", decl.Name.Local)
		g.p("// instances, so no constructor is generated (paper §3).")
		g.p("")
	} else {
		g.p("// %s wraps a %s content value in the element.", en.Create, tn.GoType)
		g.p("func (d *Document) %s(content %s) *%s {", en.Create, contentType, en.GoType)
		g.p("\treturn &%s{content: content}", en.GoType)
		g.p("}")
		g.p("")
	}
	g.p("// Content returns the element's typed content.")
	g.p("func (e *%s) Content() %s { return e.content }", en.GoType, contentType)
	g.p("")
	write := func() {
		g.p("\tif e.content == nil {")
		g.p("\t\treturn vdom.Required(%q, \"content\")", en.VDOM)
		g.p("\t}")
		g.p("\tw.Start(%q, %q)", decl.Name.Space, decl.Name.Local)
		g.p("\tdefer w.End()")
		if usesIface {
			g.p("\tif n := e.content.xsiName(); n != %q && n != \"\" {", xsiNameOf(ct))
			g.p("\t\tw.XSIType(n)")
			g.p("\t}")
		}
		g.p("\treturn e.content.writeContent(w)")
	}
	g.elementMethods(decl, en, write, func() {
		g.p("\tif e.content != nil {")
		g.p("\t\tdumpChild(sb, depth+1, e.content)")
		g.p("\t}")
	})
}

// anyTypedElement emits a wrapper for elements typed xs:anyType: content
// is raw DOM.
func (g *generator) anyTypedElement(decl *xsd.ElementDecl, en ElemNames) {
	g.p("// %s represents element <%s>, whose type is xs:anyType: its", en.GoType, decl.Name.Local)
	g.p("// content is unconstrained raw DOM.")
	g.p("type %s struct {", en.GoType)
	g.p("\tchildren []*AnyElement")
	g.p("\ttext     []string")
	g.p("}")
	g.p("")
	g.p("// %s creates an empty element.", en.Create)
	g.p("func (d *Document) %s() *%s { return &%s{} }", en.Create, en.GoType, en.GoType)
	g.p("")
	g.p("// AddRaw appends a raw child element.")
	g.p("func (e *%s) AddRaw(el *dom.Element) *%s {", en.GoType, en.GoType)
	g.p("\te.children = append(e.children, NewAnyElement(el))")
	g.p("\treturn e")
	g.p("}")
	g.p("")
	g.p("// AddText appends character data.")
	g.p("func (e *%s) AddText(s string) *%s {", en.GoType, en.GoType)
	g.p("\te.text = append(e.text, s)")
	g.p("\treturn e")
	g.p("}")
	g.p("")
	write := func() {
		g.p("\tw.Start(%q, %q)", decl.Name.Space, decl.Name.Local)
		g.p("\tfor _, c := range e.children {")
		g.p("\t\tw.Raw(c.El)")
		g.p("\t}")
		g.p("\tfor _, s := range e.text {")
		g.p("\t\tw.Text(s)")
		g.p("\t}")
		g.p("\tw.End()")
		g.p("\treturn nil")
	}
	g.elementMethods(decl, en, write, func() {})
}

// elementMethods emits XMLQName, WriteXML with the body write emits,
// VDOMName and DumpInto.
func (g *generator) elementMethods(decl *xsd.ElementDecl, en ElemNames, write, dump func()) {
	g.p("// XMLQName implements vdom.NamedElement.")
	g.p("func (e *%s) XMLQName() (string, string) { return %q, %q }", en.GoType, decl.Name.Space, decl.Name.Local)
	g.p("")
	g.p("// WriteXML implements vdom.ElementNode.")
	g.p("func (e *%s) WriteXML(w *vdom.Writer) error {", en.GoType)
	write()
	g.p("}")
	g.p("")
	g.nodeMethods("e", en.GoType, en.VDOM, dump)
}
