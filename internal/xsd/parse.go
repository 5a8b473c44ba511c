package xsd

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/xmlparser"
)

// Loader resolves include/import schemaLocation references.
type Loader interface {
	// Load returns the bytes of the schema document at location.
	Load(location string) ([]byte, error)
}

// MapLoader serves schema documents from an in-memory map.
type MapLoader map[string][]byte

// Load implements Loader.
func (m MapLoader) Load(location string) ([]byte, error) {
	b, ok := m[location]
	if !ok {
		return nil, fmt.Errorf("xsd: no schema document at %q", location)
	}
	return b, nil
}

// ParseOptions configures schema parsing.
type ParseOptions struct {
	// Loader resolves xs:include and xs:import schemaLocation values.
	// Without a loader (or Resolver), include/import with a location is an
	// error.
	Loader Loader
	// Resolver resolves schemaLocation values with referring-document
	// context and canonical keys (multi-file directory trees). When set it
	// takes precedence over Loader.
	Resolver Resolver
	// SkipUPACheck disables the Unique Particle Attribution check.
	SkipUPACheck bool
	// ParseDoc, when set, supplies the DOM for every schema document the
	// parse touches (the root and every include/import/redefine target)
	// in place of dom.Parse. A registry reload installs a content-hash
	// keyed cache here, so fifty schemas importing one shared library
	// parse its bytes once per reload instead of once per dependent.
	//
	// Documents returned here may be shared between concurrent parses:
	// the parser only reads them, and the supplier must neither mutate
	// nor Release a document while any parse that received it is alive.
	ParseDoc func(src []byte) (*dom.Document, error)
}

// parseDoc builds the DOM for one schema document through the ParseDoc
// hook when the options carry one.
func (o *ParseOptions) parseDoc(src []byte) (*dom.Document, error) {
	if o.ParseDoc != nil {
		return o.ParseDoc(src)
	}
	return dom.Parse(src)
}

// resolver returns the effective Resolver (the Loader adapted, if that is
// all the options carry), or nil.
func (o *ParseOptions) resolver() Resolver {
	if o.Resolver != nil {
		return o.Resolver
	}
	if o.Loader != nil {
		return loaderResolver{o.Loader}
	}
	return nil
}

// Parse parses a schema document into a resolved Schema.
func Parse(src []byte, opts *ParseOptions) (*Schema, error) {
	o := ParseOptions{}
	if opts != nil {
		o = *opts
	}
	return parseRoot(src, o, "")
}

// parseRoot parses the root schema document (canonical key docKey, "" when
// the source did not come from a resolver) and resolves the full component
// graph reachable from it.
func parseRoot(src []byte, o ParseOptions, docKey string) (*Schema, error) {
	doc, err := o.parseDoc(src)
	if err != nil {
		return nil, fmt.Errorf("xsd: %w", err)
	}
	root := doc.DocumentElement()
	if root == nil || root.NamespaceURI() != XSDNamespace || root.LocalName() != "schema" {
		return nil, fmt.Errorf("xsd: document root is not xsd:schema")
	}
	p := &parser{
		opts:     o,
		resolver: o.resolver(),
		schema:   NewSchema(root.GetAttribute("targetNamespace")),
		globals:  map[globalKey]*dom.Element{},
		building: map[globalKey]bool{},
		loaded:   map[string]bool{},
	}
	if docKey != "" {
		p.loaded[docKey] = true
		p.schema.sources = append(p.schema.sources, docKey)
	}
	p.schema.QualifiedLocal = root.GetAttribute("elementFormDefault") == "qualified"
	p.schema.QualifiedLocalAttr = root.GetAttribute("attributeFormDefault") == "qualified"
	if err := p.collect(root, p.schema.TargetNamespace, docKey); err != nil {
		return nil, err
	}
	if err := p.buildAll(); err != nil {
		return nil, err
	}
	if err := p.schema.checkDerivationCycles(); err != nil {
		return nil, err
	}
	p.indexSubstitutionGroups()
	if !o.SkipUPACheck {
		if err := p.schema.CheckAllUPA(); err != nil {
			return nil, err
		}
	}
	return p.schema, nil
}

// ParseSource parses a schema document that already has a canonical key —
// an in-memory document that participates in reference resolution as if it
// lived at key (relative schemaLocations resolve against it, and it is
// recorded in Schema.Sources). Callers embedding schemas inside larger
// documents (WSDL <types>) use this to give each embedded schema a stable
// identity without a backing file.
func ParseSource(key string, src []byte, opts *ParseOptions) (*Schema, error) {
	o := ParseOptions{}
	if opts != nil {
		o = *opts
	}
	return parseRoot(src, o, key)
}

// ParseString parses a schema from a string.
func ParseString(src string, opts *ParseOptions) (*Schema, error) {
	return Parse([]byte(src), opts)
}

// MustParse parses a schema known to be valid.
func MustParse(src string) *Schema {
	s, err := ParseString(src, nil)
	if err != nil {
		panic(err)
	}
	return s
}

// componentKind distinguishes the global symbol spaces.
type componentKind int

const (
	kindElement componentKind = iota
	kindType
	kindGroup
	kindAttributeGroup
	kindAttribute
)

type globalKey struct {
	kind componentKind
	name QName
}

// parser carries parse state.
type parser struct {
	opts     ParseOptions
	resolver Resolver
	schema   *Schema
	// globals maps each declared global component to its DOM element;
	// components build lazily so forward references work.
	globals map[globalKey]*dom.Element
	// elemTNS records the target namespace of the schema document each
	// global was declared in (include/import may differ).
	elemTNS map[*dom.Element]string
	// building detects illegal definition cycles.
	building map[globalKey]bool
	loaded   map[string]bool
}

// errAt formats an error with the offending schema construct.
func errAt(el *dom.Element, format string, args ...any) error {
	return fmt.Errorf("xsd: <%s>: %s", el.TagName(), fmt.Sprintf(format, args...))
}

// collect registers all global components of a schema document. docKey is
// the document's canonical key under the resolver ("" when the document
// was parsed from bytes); relative schemaLocation values resolve against
// it.
func (p *parser) collect(root *dom.Element, tns, docKey string) error {
	if p.elemTNS == nil {
		p.elemTNS = map[*dom.Element]string{}
	}
	for _, el := range root.ChildElements() {
		if el.NamespaceURI() != XSDNamespace {
			return errAt(el, "foreign top-level element")
		}
		switch el.LocalName() {
		case "annotation", "notation":
			continue
		case "include":
			if _, err := p.loadRef(el, tns, docKey, refInclude); err != nil {
				return err
			}
		case "import":
			if err := p.loadImport(el, tns, docKey); err != nil {
				return err
			}
		case "redefine":
			if err := p.loadRedefine(el, tns, docKey); err != nil {
				return err
			}
		case "element", "complexType", "simpleType", "group", "attributeGroup", "attribute":
			name := el.GetAttribute("name")
			if name == "" {
				return errAt(el, "top-level component requires a name")
			}
			key := globalKey{kind: kindOf(el.LocalName()), name: QName{Space: tns, Local: name}}
			if _, dup := p.globals[key]; dup {
				return errAt(el, "duplicate global %s %q", el.LocalName(), name)
			}
			p.globals[key] = el
			p.elemTNS[el] = tns
		default:
			return errAt(el, "unsupported top-level construct")
		}
	}
	return nil
}

// kindOf maps a top-level construct name to its symbol space.
func kindOf(local string) componentKind {
	return map[string]componentKind{
		"element": kindElement, "complexType": kindType, "simpleType": kindType,
		"group": kindGroup, "attributeGroup": kindAttributeGroup, "attribute": kindAttribute,
	}[local]
}

// refKind distinguishes the three composition constructs, which share the
// document-loading mechanics but differ in namespace rules and in what
// happens to the loaded components.
type refKind int

const (
	refInclude refKind = iota
	refImport
	refRedefine
)

// loadImport handles xs:import: components of a *different* namespace.
func (p *parser) loadImport(el *dom.Element, tns, docKey string) error {
	nsAttr := el.GetAttribute("namespace")
	if nsAttr == tns && nsAttr != "" {
		return errAt(el, "import of the importing schema's own target namespace %q (use include)", nsAttr)
	}
	_, err := p.loadRef(el, nsAttr, docKey, refImport)
	return err
}

// loadRedefine handles xs:redefine: the referenced same-namespace document
// is composed exactly like an include, then the redefine's own child
// definitions *replace* the loaded ones of the same name.
//
// Supported semantics are replacement: a redefining type may not use
// itself as its own derivation base (the W3C "pervasive" self-referential
// form); such a redefinition reports a definition cycle. Replacement
// covers the common vocabulary-pinning use and keeps the component graph
// acyclic.
func (p *parser) loadRedefine(el *dom.Element, tns, docKey string) error {
	if _, err := p.loadRef(el, tns, docKey, refRedefine); err != nil {
		return err
	}
	for _, c := range schemaChildren(el) {
		switch c.LocalName() {
		case "complexType", "simpleType", "group", "attributeGroup":
			name := c.GetAttribute("name")
			if name == "" {
				return errAt(c, "redefined component requires a name")
			}
			key := globalKey{kind: kindOf(c.LocalName()), name: QName{Space: tns, Local: name}}
			if _, ok := p.globals[key]; !ok {
				return errAt(c, "redefined %s %q is not declared by the redefined schema", c.LocalName(), name)
			}
			p.globals[key] = c // replace the loaded definition
			p.elemTNS[c] = tns
		default:
			return errAt(c, "unsupported construct inside redefine")
		}
	}
	return nil
}

// loadRef loads and collects the document referenced by an
// include/import/redefine element. It returns whether a document was
// actually loaded (false for a location-less import, or a reference
// already composed through another path — canonical keys make the same
// file reachable through different relative spellings load once, which is
// also what terminates reference cycles).
func (p *parser) loadRef(el *dom.Element, tns, docKey string, kind refKind) (bool, error) {
	loc := el.GetAttribute("schemaLocation")
	var key string
	var src []byte
	if loc == "" {
		if kind != refImport {
			return false, errAt(el, "%s requires schemaLocation", el.LocalName())
		}
		// Import without location: a namespace catalog may know the
		// document; otherwise components are expected elsewhere.
		nr, ok := p.resolver.(NamespaceResolver)
		if !ok {
			return false, nil
		}
		k, s, found, err := nr.ResolveNamespace(tns)
		if err != nil {
			return false, errAt(el, "resolving namespace %q: %v", tns, err)
		}
		if !found {
			return false, nil
		}
		key, src = k, s
	} else {
		if p.resolver == nil {
			return false, errAt(el, "schemaLocation %q cannot be resolved without a Loader or Resolver", loc)
		}
		k, s, err := p.resolver.Resolve(docKey, loc)
		if err != nil {
			return false, errAt(el, "loading %q: %v", loc, err)
		}
		key, src = k, s
	}
	if p.loaded[key] {
		return false, nil
	}
	p.loaded[key] = true
	p.schema.sources = append(p.schema.sources, key)
	ref := loc
	if ref == "" {
		ref = "namespace " + tns
	}
	doc, err := p.opts.parseDoc(src)
	if err != nil {
		return false, errAt(el, "parsing %q: %v", ref, err)
	}
	sub := doc.DocumentElement()
	if sub == nil || sub.NamespaceURI() != XSDNamespace || sub.LocalName() != "schema" {
		return false, errAt(el, "%q is not a schema document", ref)
	}
	subTNS := sub.GetAttribute("targetNamespace")
	switch kind {
	case refInclude, refRedefine:
		// Chameleon include: a no-namespace document adopts ours.
		if subTNS == "" {
			subTNS = tns
		} else if subTNS != tns {
			return false, errAt(el, "%s schema has target namespace %q, want %q", el.LocalName(), subTNS, tns)
		}
	case refImport:
		// Namespace coherence: the document must declare the namespace the
		// import promised (or none, when the import named none).
		if subTNS != tns {
			return false, errAt(el, "imported schema has target namespace %q, import declares %q", subTNS, tns)
		}
	}
	return true, p.collect(sub, subTNS, key)
}

// buildAll forces construction of every registered global component.
func (p *parser) buildAll() error {
	// Deterministic order: elements, then types, groups, attribute
	// groups, attributes; within a kind, document registration order is
	// map-random, so sort by name.
	var keys []globalKey
	for k := range p.globals {
		keys = append(keys, k)
	}
	sortKeys(keys)
	for _, k := range keys {
		var err error
		switch k.kind {
		case kindType:
			_, err = p.buildType(k.name)
		case kindElement:
			_, err = p.buildGlobalElement(k.name)
		case kindGroup:
			_, err = p.buildGroup(k.name)
		case kindAttributeGroup:
			_, err = p.buildAttributeGroup(k.name)
		case kindAttribute:
			_, err = p.buildGlobalAttribute(k.name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func sortKeys(keys []globalKey) {
	less := func(a, b globalKey) bool {
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.name.Space != b.name.Space {
			return a.name.Space < b.name.Space
		}
		return a.name.Local < b.name.Local
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// tnsOf returns the target namespace governing a DOM node.
func (p *parser) tnsOf(el *dom.Element) string {
	for n := dom.Node(el); n != nil; n = n.ParentNode() {
		if e, ok := n.(*dom.Element); ok {
			if tns, ok := p.elemTNS[e]; ok {
				return tns
			}
		}
	}
	return p.schema.TargetNamespace
}

// formDefaultOf reports whether locals declared in el's schema document
// default to qualified names. Form defaults are per *document*, not per
// schema: an imported document's elementFormDefault governs its own
// declarations no matter what the importing root says, so this walks up
// to the owning <xs:schema> root instead of reading the root document's
// flag. attr selects elementFormDefault or attributeFormDefault.
func (p *parser) formDefaultOf(el *dom.Element, attr string) bool {
	for n := dom.Node(el); n != nil; n = n.ParentNode() {
		if e, ok := n.(*dom.Element); ok &&
			e.NamespaceURI() == XSDNamespace && e.LocalName() == "schema" {
			return e.GetAttribute(attr) == "qualified"
		}
	}
	if attr == "attributeFormDefault" {
		return p.schema.QualifiedLocalAttr
	}
	return p.schema.QualifiedLocal
}

// resolveQName resolves a lexical QName against the namespace declarations
// in scope at el.
func resolveQName(el *dom.Element, lexical string) (QName, error) {
	lexical = strings.TrimSpace(lexical)
	prefix, local := "", lexical
	if i := strings.IndexByte(lexical, ':'); i >= 0 {
		prefix, local = lexical[:i], lexical[i+1:]
	}
	if local == "" || !xmlparser.IsNCName(local) || (prefix != "" && !xmlparser.IsNCName(prefix)) {
		return QName{}, fmt.Errorf("bad QName %q", lexical)
	}
	if prefix == "xml" {
		return QName{Space: xmlparser.XMLNamespace, Local: local}, nil
	}
	for n := dom.Node(el); n != nil; n = n.ParentNode() {
		e, ok := n.(*dom.Element)
		if !ok {
			continue
		}
		if prefix == "" {
			// Default namespace: the xmlns attribute itself.
			if e.HasAttributeNS(xmlparser.XMLNSNamespace, "xmlns") {
				return QName{Space: e.GetAttributeNS(xmlparser.XMLNSNamespace, "xmlns"), Local: local}, nil
			}
		} else if e.HasAttributeNS(xmlparser.XMLNSNamespace, prefix) {
			return QName{Space: e.GetAttributeNS(xmlparser.XMLNSNamespace, prefix), Local: local}, nil
		}
	}
	if prefix != "" {
		return QName{}, fmt.Errorf("undeclared namespace prefix %q in %q", prefix, lexical)
	}
	return QName{Local: local}, nil
}

// childElements returns the XSD-namespace children, skipping annotations.
func schemaChildren(el *dom.Element) []*dom.Element {
	var out []*dom.Element
	for _, c := range el.ChildElements() {
		if c.NamespaceURI() == XSDNamespace && c.LocalName() != "annotation" {
			out = append(out, c)
		}
	}
	return out
}

// occurs parses minOccurs/maxOccurs.
func occurs(el *dom.Element) (int, int, error) {
	min, max := 1, 1
	if v := el.GetAttribute("minOccurs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return 0, 0, errAt(el, "bad minOccurs %q", v)
		}
		min = n
	}
	if v := el.GetAttribute("maxOccurs"); v != "" {
		if v == "unbounded" {
			max = Unbounded
		} else {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return 0, 0, errAt(el, "bad maxOccurs %q", v)
			}
			max = n
		}
	}
	if max != Unbounded && max < min {
		return 0, 0, errAt(el, "maxOccurs %d is below minOccurs %d", max, min)
	}
	return min, max, nil
}

// buildType resolves a named type (built-in or global declaration).
func (p *parser) buildType(name QName) (Type, error) {
	if t, ok := p.schema.Types[name]; ok {
		return t, nil
	}
	key := globalKey{kind: kindType, name: name}
	el, ok := p.globals[key]
	if !ok {
		return nil, fmt.Errorf("xsd: reference to undeclared type %s", name)
	}
	if p.building[key] {
		return nil, fmt.Errorf("xsd: type %s is part of a definition cycle", name)
	}
	p.building[key] = true
	defer delete(p.building, key)
	var t Type
	var err error
	if el.LocalName() == "simpleType" {
		t, err = p.parseSimpleType(el, name, name.Local)
	} else {
		t, err = p.parseComplexType(el, name, name.Local)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// buildGlobalElement resolves a global element declaration.
func (p *parser) buildGlobalElement(name QName) (*ElementDecl, error) {
	if e, ok := p.schema.Elements[name]; ok {
		return e, nil
	}
	key := globalKey{kind: kindElement, name: name}
	el, ok := p.globals[key]
	if !ok {
		return nil, fmt.Errorf("xsd: reference to undeclared element %s", name)
	}
	decl := &ElementDecl{Name: name, Global: true}
	p.schema.Elements[name] = decl // register shell first: recursion is legal
	if err := p.fillElement(el, decl); err != nil {
		return nil, err
	}
	return decl, nil
}

// fillElement populates an element declaration from its DOM node.
func (p *parser) fillElement(el *dom.Element, decl *ElementDecl) error {
	decl.Abstract = el.GetAttribute("abstract") == "true"
	decl.Nillable = el.GetAttribute("nillable") == "true"
	if v := el.GetAttribute("default"); el.HasAttribute("default") {
		decl.Default = &v
	}
	if v := el.GetAttribute("fixed"); el.HasAttribute("fixed") {
		decl.Fixed = &v
	}
	if sg := el.GetAttribute("substitutionGroup"); sg != "" {
		q, err := resolveQName(el, sg)
		if err != nil {
			return errAt(el, "%v", err)
		}
		head, err := p.buildGlobalElement(q)
		if err != nil {
			return err
		}
		decl.SubstitutionHead = head
	}
	// Identity constraints (extension beyond the paper's scope).
	for _, c := range schemaChildren(el) {
		switch c.LocalName() {
		case "unique", "key", "keyref":
			ic, err := p.parseIdentityConstraint(c)
			if err != nil {
				return err
			}
			decl.Constraints = append(decl.Constraints, ic)
		}
	}
	// Type: @type, inline complexType/simpleType, or the head's type, or
	// anyType.
	if tn := el.GetAttribute("type"); tn != "" {
		q, err := resolveQName(el, tn)
		if err != nil {
			return errAt(el, "%v", err)
		}
		t, err := p.buildType(q)
		if err != nil {
			return err
		}
		decl.Type = t
		return nil
	}
	for _, c := range schemaChildren(el) {
		switch c.LocalName() {
		case "complexType":
			t, err := p.parseComplexType(c, QName{}, decl.Name.Local)
			if err != nil {
				return err
			}
			decl.Type = t
			return nil
		case "simpleType":
			t, err := p.parseSimpleType(c, QName{}, decl.Name.Local)
			if err != nil {
				return err
			}
			decl.Type = t
			return nil
		}
	}
	if decl.SubstitutionHead != nil {
		decl.Type = decl.SubstitutionHead.Type
		return nil
	}
	decl.Type = p.schema.AnyType()
	return nil
}

// parseIdentityConstraint parses xs:unique / xs:key / xs:keyref.
func (p *parser) parseIdentityConstraint(el *dom.Element) (*IdentityConstraint, error) {
	ic := &IdentityConstraint{}
	switch el.LocalName() {
	case "key":
		ic.Kind = ConstraintKey
	case "keyref":
		ic.Kind = ConstraintKeyref
	default:
		ic.Kind = ConstraintUnique
	}
	name := el.GetAttribute("name")
	if name == "" {
		return nil, errAt(el, "identity constraint requires a name")
	}
	ic.Name = QName{Space: p.tnsOf(el), Local: name}
	if ic.Kind == ConstraintKeyref {
		refer := el.GetAttribute("refer")
		if refer == "" {
			return nil, errAt(el, "keyref requires refer")
		}
		q, err := resolveQName(el, refer)
		if err != nil {
			return nil, errAt(el, "%v", err)
		}
		ic.Refer = q
	}
	for _, c := range schemaChildren(el) {
		kind := c.LocalName()
		if kind != "selector" && kind != "field" {
			continue
		}
		paths, err := parseXPath(c.GetAttribute("xpath"), kind == "field")
		if err != nil {
			return nil, errAt(c, "identity constraint %s: bad %s: %v", name, kind, err)
		}
		if kind == "selector" {
			ic.Selector = paths
		} else {
			ic.Fields = append(ic.Fields, paths)
		}
	}
	if ic.Selector == nil || len(ic.Fields) == 0 {
		return nil, errAt(el, "identity constraint %q requires a selector and at least one field", name)
	}
	return ic, nil
}

// buildGroup resolves a named model group definition.
func (p *parser) buildGroup(name QName) (*ModelGroupDef, error) {
	if g, ok := p.schema.Groups[name]; ok {
		return g, nil
	}
	key := globalKey{kind: kindGroup, name: name}
	el, ok := p.globals[key]
	if !ok {
		return nil, fmt.Errorf("xsd: reference to undeclared group %s", name)
	}
	if p.building[key] {
		return nil, fmt.Errorf("xsd: group %s is part of a definition cycle", name)
	}
	p.building[key] = true
	defer delete(p.building, key)
	def := &ModelGroupDef{Name: name}
	kids := schemaChildren(el)
	if len(kids) != 1 {
		return nil, errAt(el, "group definition must contain exactly one compositor")
	}
	particle, err := p.parseParticle(kids[0])
	if err != nil {
		return nil, err
	}
	if particle.Group != nil {
		particle.Group.DefName = name
	}
	def.Particle = particle
	p.schema.Groups[name] = def
	return def, nil
}

// buildAttributeGroup resolves a named attribute group.
func (p *parser) buildAttributeGroup(name QName) (*AttributeGroupDef, error) {
	if g, ok := p.schema.AttributeGroups[name]; ok {
		return g, nil
	}
	key := globalKey{kind: kindAttributeGroup, name: name}
	el, ok := p.globals[key]
	if !ok {
		return nil, fmt.Errorf("xsd: reference to undeclared attributeGroup %s", name)
	}
	if p.building[key] {
		return nil, fmt.Errorf("xsd: attributeGroup %s is part of a definition cycle", name)
	}
	p.building[key] = true
	defer delete(p.building, key)
	def := &AttributeGroupDef{Name: name}
	uses, wild, err := p.parseAttributeUses(el)
	if err != nil {
		return nil, err
	}
	def.AttributeUses, def.AttrWildcard = uses, wild
	p.schema.AttributeGroups[name] = def
	return def, nil
}

// buildGlobalAttribute resolves a global attribute declaration.
func (p *parser) buildGlobalAttribute(name QName) (*AttributeDecl, error) {
	if a, ok := p.schema.Attributes[name]; ok {
		return a, nil
	}
	key := globalKey{kind: kindAttribute, name: name}
	el, ok := p.globals[key]
	if !ok {
		return nil, fmt.Errorf("xsd: reference to undeclared attribute %s", name)
	}
	decl := &AttributeDecl{Name: name}
	st, err := p.attributeType(el, name.Local)
	if err != nil {
		return nil, err
	}
	decl.Type = st
	p.schema.Attributes[name] = decl
	return decl, nil
}

// attributeType determines an attribute's simple type.
func (p *parser) attributeType(el *dom.Element, context string) (*SimpleType, error) {
	if tn := el.GetAttribute("type"); tn != "" {
		q, err := resolveQName(el, tn)
		if err != nil {
			return nil, errAt(el, "%v", err)
		}
		t, err := p.buildType(q)
		if err != nil {
			return nil, err
		}
		st, ok := t.(*SimpleType)
		if !ok {
			return nil, errAt(el, "attribute type %s is not a simple type", q)
		}
		return st, nil
	}
	for _, c := range schemaChildren(el) {
		if c.LocalName() == "simpleType" {
			return p.parseSimpleType(c, QName{}, context)
		}
	}
	return p.schema.SimpleTypeOf("anySimpleType"), nil
}

// parseParticle parses element | group(ref) | choice | sequence | all | any.
func (p *parser) parseParticle(el *dom.Element) (*Particle, error) {
	min, max, err := occurs(el)
	if err != nil {
		return nil, err
	}
	pt := &Particle{Min: min, Max: max}
	switch el.LocalName() {
	case "element":
		if ref := el.GetAttribute("ref"); ref != "" {
			q, err := resolveQName(el, ref)
			if err != nil {
				return nil, errAt(el, "%v", err)
			}
			decl, err := p.buildGlobalElement(q)
			if err != nil {
				return nil, err
			}
			pt.Element = decl
			return pt, nil
		}
		name := el.GetAttribute("name")
		if name == "" {
			return nil, errAt(el, "local element requires name or ref")
		}
		space := ""
		qualified := p.formDefaultOf(el, "elementFormDefault")
		if form := el.GetAttribute("form"); form != "" {
			qualified = form == "qualified"
		}
		if qualified {
			space = p.tnsOf(el)
		}
		decl := &ElementDecl{Name: QName{Space: space, Local: name}}
		if err := p.fillElement(el, decl); err != nil {
			return nil, err
		}
		pt.Element = decl
		return pt, nil
	case "group":
		ref := el.GetAttribute("ref")
		if ref == "" {
			return nil, errAt(el, "group particle requires ref")
		}
		q, err := resolveQName(el, ref)
		if err != nil {
			return nil, errAt(el, "%v", err)
		}
		def, err := p.buildGroup(q)
		if err != nil {
			return nil, err
		}
		// Splice the definition's particle under this particle's
		// occurrence bounds, keeping the explicit name.
		inner := def.Particle
		if inner.Group != nil {
			pt.Group = inner.Group
		} else {
			pt.Group = &ModelGroup{Kind: Sequence, Particles: []*Particle{inner}, DefName: q}
		}
		return pt, nil
	case "sequence", "choice", "all":
		kind := map[string]GroupKind{"sequence": Sequence, "choice": Choice, "all": All}[el.LocalName()]
		g := &ModelGroup{Kind: kind}
		for _, c := range schemaChildren(el) {
			cp, err := p.parseParticle(c)
			if err != nil {
				return nil, err
			}
			g.Particles = append(g.Particles, cp)
		}
		pt.Group = g
		return pt, nil
	case "any":
		w, err := parseWildcard(el, p.tnsOf(el))
		if err != nil {
			return nil, err
		}
		pt.Wildcard = w
		return pt, nil
	default:
		return nil, errAt(el, "unexpected particle")
	}
}

// parseWildcard parses xs:any / xs:anyAttribute namespace constraints.
func parseWildcard(el *dom.Element, tns string) (*contentmodel.Wildcard, error) {
	ns := el.GetAttribute("namespace")
	w := &contentmodel.Wildcard{TargetNS: tns}
	switch ns {
	case "", "##any":
		w.Kind = contentmodel.WildAny
	case "##other":
		w.Kind = contentmodel.WildOther
	default:
		w.Kind = contentmodel.WildList
		for _, part := range strings.Fields(ns) {
			switch part {
			case "##local":
				w.Namespaces = append(w.Namespaces, "")
			case "##targetNamespace":
				w.Namespaces = append(w.Namespaces, tns)
			default:
				w.Namespaces = append(w.Namespaces, part)
			}
		}
	}
	return w, nil
}
