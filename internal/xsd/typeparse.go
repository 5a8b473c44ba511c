package xsd

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/xsdregex"
	"repro/internal/xsdtypes"
)

// parseComplexType parses an xs:complexType definition. name is zero for
// anonymous types; context describes the definition site for diagnostics
// and the normalization naming scheme.
func (p *parser) parseComplexType(el *dom.Element, name QName, context string) (*ComplexType, error) {
	ct := &ComplexType{Name: name, Context: context}
	ct.Abstract = el.GetAttribute("abstract") == "true"
	mixed := el.GetAttribute("mixed") == "true"
	if !name.IsZero() {
		p.schema.Types[name] = ct // register shell: recursive content is legal
	} else {
		p.schema.anonTypes = append(p.schema.anonTypes, ct)
	}
	kids := schemaChildren(el)
	// simpleContent / complexContent / implicit content.
	if len(kids) == 1 && kids[0].LocalName() == "simpleContent" {
		if err := p.parseSimpleContent(kids[0], ct); err != nil {
			return nil, err
		}
		return ct, nil
	}
	if len(kids) == 1 && kids[0].LocalName() == "complexContent" {
		if m := kids[0].GetAttribute("mixed"); m != "" {
			mixed = m == "true"
		}
		if err := p.parseComplexContent(kids[0], ct, mixed); err != nil {
			return nil, err
		}
		return ct, nil
	}
	// Implicit complex content: restriction of anyType.
	ct.Base = p.schema.AnyType()
	ct.DerivedBy = DeriveRestriction
	particle, uses, wild, err := p.parseContentBody(kids, context)
	if err != nil {
		return nil, err
	}
	ct.Particle = particle
	ct.AttributeUses = uses
	ct.AttrWildcard = wild
	ct.Kind = classifyContent(particle, mixed)
	return ct, nil
}

// classifyContent determines the content kind from the particle.
func classifyContent(particle *Particle, mixed bool) ContentKind {
	empty := particle == nil || (particle.Group != nil && len(particle.Group.Particles) == 0)
	switch {
	case mixed:
		return ContentMixed
	case empty:
		return ContentEmpty
	default:
		return ContentElementOnly
	}
}

// parseContentBody parses the (group|all|choice|sequence)? attrDecls tail
// shared by complexType and complexContent derivations.
func (p *parser) parseContentBody(kids []*dom.Element, context string) (*Particle, []*AttributeUse, *contentmodel.Wildcard, error) {
	var particle *Particle
	var attrNodes []*dom.Element
	for _, c := range kids {
		switch c.LocalName() {
		case "group", "all", "choice", "sequence":
			if particle != nil {
				return nil, nil, nil, errAt(c, "multiple content model groups")
			}
			var err error
			particle, err = p.parseParticle(c)
			if err != nil {
				return nil, nil, nil, err
			}
		case "attribute", "attributeGroup", "anyAttribute":
			attrNodes = append(attrNodes, c)
		default:
			return nil, nil, nil, errAt(c, "unexpected construct in complex type %q", context)
		}
	}
	uses, wild, err := p.parseAttributeNodes(attrNodes)
	if err != nil {
		return nil, nil, nil, err
	}
	return particle, uses, wild, nil
}

// parseSimpleContent parses simpleContent extension/restriction.
func (p *parser) parseSimpleContent(el *dom.Element, ct *ComplexType) error {
	kids := schemaChildren(el)
	if len(kids) != 1 {
		return errAt(el, "simpleContent requires exactly one extension or restriction")
	}
	deriv := kids[0]
	baseName := deriv.GetAttribute("base")
	if baseName == "" {
		return errAt(deriv, "derivation requires base")
	}
	q, err := resolveQName(deriv, baseName)
	if err != nil {
		return errAt(deriv, "%v", err)
	}
	base, err := p.buildType(q)
	if err != nil {
		return err
	}
	ct.Base = base
	ct.Kind = ContentSimple
	// Determine the character-data simple type.
	var baseSimple *SimpleType
	switch b := base.(type) {
	case *SimpleType:
		baseSimple = b
	case *ComplexType:
		if b.Kind != ContentSimple {
			return errAt(deriv, "simpleContent base %s has no simple content", q)
		}
		baseSimple = b.SimpleContentType
		// Inherit the base's attributes.
		ct.AttributeUses = append(ct.AttributeUses, b.AttributeUses...)
		if b.AttrWildcard != nil {
			ct.AttrWildcard = b.AttrWildcard
		}
	}
	switch deriv.LocalName() {
	case "extension":
		ct.DerivedBy = DeriveExtension
		ct.SimpleContentType = baseSimple
		uses, wild, err := p.parseAttributeUses(deriv)
		if err != nil {
			return err
		}
		ct.AttributeUses = mergeAttributeUses(ct.AttributeUses, uses)
		if wild != nil {
			ct.AttrWildcard = wild
		}
	case "restriction":
		ct.DerivedBy = DeriveRestriction
		// Facets restrict the simple content type.
		st := &SimpleType{Base: baseSimple, Variety: baseSimple.Variety, ItemType: baseSimple.ItemType, MemberTypes: baseSimple.MemberTypes, Context: ct.Context + " simpleContent"}
		if err := p.parseFacets(deriv, st); err != nil {
			return err
		}
		st.resolveChain()
		ct.SimpleContentType = st
		uses, wild, err := p.parseAttributeUses(deriv)
		if err != nil {
			return err
		}
		ct.AttributeUses = mergeAttributeUses(ct.AttributeUses, uses)
		if wild != nil {
			ct.AttrWildcard = wild
		}
	default:
		return errAt(deriv, "simpleContent requires extension or restriction")
	}
	return nil
}

// parseComplexContent parses complexContent extension/restriction.
func (p *parser) parseComplexContent(el *dom.Element, ct *ComplexType, mixed bool) error {
	kids := schemaChildren(el)
	if len(kids) != 1 {
		return errAt(el, "complexContent requires exactly one extension or restriction")
	}
	deriv := kids[0]
	baseName := deriv.GetAttribute("base")
	if baseName == "" {
		return errAt(deriv, "derivation requires base")
	}
	q, err := resolveQName(deriv, baseName)
	if err != nil {
		return errAt(deriv, "%v", err)
	}
	baseT, err := p.buildType(q)
	if err != nil {
		return err
	}
	base, ok := baseT.(*ComplexType)
	if !ok {
		return errAt(deriv, "complexContent base %s is not a complex type", q)
	}
	ct.Base = base
	particle, uses, wild, err := p.parseContentBody(schemaChildren(deriv), ct.Context)
	if err != nil {
		return err
	}
	switch deriv.LocalName() {
	case "extension":
		ct.DerivedBy = DeriveExtension
		// Effective content: sequence(base content, extension content).
		switch {
		case base.Particle == nil || isEmptyGroup(base.Particle):
			ct.Particle = particle
		case particle == nil:
			ct.Particle = base.Particle
		case isPlainSequence(base.Particle) && isPlainSequence(particle):
			// Flatten two 1..1 sequences into one, so inherited members
			// sit next to the extension's own (paper §3: USAddressType
			// carries name..city and state/zip as sibling attributes).
			merged := append(append([]*Particle{}, base.Particle.Group.Particles...), particle.Group.Particles...)
			ct.Particle = &Particle{Min: 1, Max: 1, Group: &ModelGroup{Kind: Sequence, Particles: merged}}
		default:
			ct.Particle = &Particle{Min: 1, Max: 1, Group: &ModelGroup{
				Kind:      Sequence,
				Particles: []*Particle{base.Particle, particle},
			}}
		}
		ct.AttributeUses = mergeAttributeUses(base.AttributeUses, uses)
		ct.AttrWildcard = wild
		if ct.AttrWildcard == nil {
			ct.AttrWildcard = base.AttrWildcard
		}
		if !mixed && base.Kind == ContentMixed {
			mixed = true // extension of a mixed type stays mixed
		}
	case "restriction":
		ct.DerivedBy = DeriveRestriction
		ct.Particle = particle
		ct.AttributeUses = mergeAttributeUses(base.AttributeUses, uses)
		ct.AttrWildcard = wild
	default:
		return errAt(deriv, "complexContent requires extension or restriction")
	}
	ct.Kind = classifyContent(ct.Particle, mixed)
	return nil
}

func isEmptyGroup(p *Particle) bool {
	return p.Group != nil && len(p.Group.Particles) == 0
}

// isPlainSequence reports whether p is an unnamed 1..1 sequence group.
func isPlainSequence(p *Particle) bool {
	return p.Group != nil && p.Group.Kind == Sequence && p.Group.DefName.IsZero() &&
		p.Min == 1 && p.Max == 1
}

// mergeAttributeUses overlays own uses on inherited ones (same-name
// replaces; prohibited removes).
func mergeAttributeUses(inherited, own []*AttributeUse) []*AttributeUse {
	var out []*AttributeUse
	replaced := func(name QName) *AttributeUse {
		for _, u := range own {
			if u.Decl.Name == name {
				return u
			}
		}
		return nil
	}
	for _, u := range inherited {
		if r := replaced(u.Decl.Name); r != nil {
			continue // own declaration wins
		}
		out = append(out, u)
	}
	for _, u := range own {
		if u.Prohibited {
			continue
		}
		out = append(out, u)
	}
	return out
}

// parseAttributeUses parses attribute/attributeGroup/anyAttribute children
// of el.
func (p *parser) parseAttributeUses(el *dom.Element) ([]*AttributeUse, *contentmodel.Wildcard, error) {
	var nodes []*dom.Element
	for _, c := range schemaChildren(el) {
		switch c.LocalName() {
		case "attribute", "attributeGroup", "anyAttribute":
			nodes = append(nodes, c)
		}
	}
	return p.parseAttributeNodes(nodes)
}

func (p *parser) parseAttributeNodes(nodes []*dom.Element) ([]*AttributeUse, *contentmodel.Wildcard, error) {
	var uses []*AttributeUse
	var wild *contentmodel.Wildcard
	for _, c := range nodes {
		switch c.LocalName() {
		case "attribute":
			u, err := p.parseAttributeUse(c)
			if err != nil {
				return nil, nil, err
			}
			uses = append(uses, u)
		case "attributeGroup":
			ref := c.GetAttribute("ref")
			if ref == "" {
				return nil, nil, errAt(c, "attributeGroup here requires ref")
			}
			q, err := resolveQName(c, ref)
			if err != nil {
				return nil, nil, errAt(c, "%v", err)
			}
			def, err := p.buildAttributeGroup(q)
			if err != nil {
				return nil, nil, err
			}
			uses = append(uses, def.AttributeUses...)
			if def.AttrWildcard != nil {
				wild = def.AttrWildcard
			}
		case "anyAttribute":
			w, err := parseWildcard(c, p.tnsOf(c))
			if err != nil {
				return nil, nil, err
			}
			wild = w
		}
	}
	return uses, wild, nil
}

// parseAttributeUse parses one xs:attribute occurrence inside a type.
func (p *parser) parseAttributeUse(el *dom.Element) (*AttributeUse, error) {
	use := &AttributeUse{}
	switch el.GetAttribute("use") {
	case "required":
		use.Required = true
	case "prohibited":
		use.Prohibited = true
	}
	if v := el.GetAttribute("default"); el.HasAttribute("default") {
		use.Default = &v
	}
	if v := el.GetAttribute("fixed"); el.HasAttribute("fixed") {
		use.Fixed = &v
	}
	if ref := el.GetAttribute("ref"); ref != "" {
		q, err := resolveQName(el, ref)
		if err != nil {
			return nil, errAt(el, "%v", err)
		}
		decl, err := p.buildGlobalAttribute(q)
		if err != nil {
			return nil, err
		}
		use.Decl = decl
		return use, nil
	}
	name := el.GetAttribute("name")
	if name == "" {
		return nil, errAt(el, "attribute requires name or ref")
	}
	space := ""
	qualified := p.formDefaultOf(el, "attributeFormDefault")
	if form := el.GetAttribute("form"); form != "" {
		qualified = form == "qualified"
	}
	if qualified {
		space = p.tnsOf(el)
	}
	st, err := p.attributeType(el, name)
	if err != nil {
		return nil, err
	}
	use.Decl = &AttributeDecl{Name: QName{Space: space, Local: name}, Type: st}
	return use, nil
}

// parseSimpleType parses an xs:simpleType definition.
func (p *parser) parseSimpleType(el *dom.Element, name QName, context string) (*SimpleType, error) {
	st := &SimpleType{Name: name, Context: context}
	// Unlike complex types, simple types register only after their body
	// parses: a simple type cannot legally refer to itself, and eager
	// registration would mask derivation cycles (buildType's in-progress
	// set catches them instead).
	if name.IsZero() {
		p.schema.anonTypes = append(p.schema.anonTypes, st)
	}
	kids := schemaChildren(el)
	if len(kids) != 1 {
		return nil, errAt(el, "simpleType requires exactly one of restriction, list or union")
	}
	body := kids[0]
	switch body.LocalName() {
	case "restriction":
		st.Variety = VarietyAtomic
		base, err := p.simpleBase(body, context)
		if err != nil {
			return nil, err
		}
		st.Base = base
		st.Variety = base.Variety
		st.ItemType = base.ItemType
		st.MemberTypes = base.MemberTypes
		if err := p.parseFacets(body, st); err != nil {
			return nil, err
		}
	case "list":
		st.Variety = VarietyList
		if it := body.GetAttribute("itemType"); it != "" {
			q, err := resolveQName(body, it)
			if err != nil {
				return nil, errAt(body, "%v", err)
			}
			item, err := p.buildSimpleType(q, body)
			if err != nil {
				return nil, err
			}
			st.ItemType = item
		} else {
			inner := schemaChildren(body)
			if len(inner) != 1 || inner[0].LocalName() != "simpleType" {
				return nil, errAt(body, "list requires itemType or an inline simpleType")
			}
			item, err := p.parseSimpleType(inner[0], QName{}, context+" item")
			if err != nil {
				return nil, err
			}
			st.ItemType = item
		}
	case "union":
		st.Variety = VarietyUnion
		if mt := body.GetAttribute("memberTypes"); mt != "" {
			for _, lex := range strings.Fields(mt) {
				q, err := resolveQName(body, lex)
				if err != nil {
					return nil, errAt(body, "%v", err)
				}
				m, err := p.buildSimpleType(q, body)
				if err != nil {
					return nil, err
				}
				st.MemberTypes = append(st.MemberTypes, m)
			}
		}
		for _, inner := range schemaChildren(body) {
			if inner.LocalName() != "simpleType" {
				return nil, errAt(inner, "unexpected construct in union")
			}
			m, err := p.parseSimpleType(inner, QName{}, context+" member")
			if err != nil {
				return nil, err
			}
			st.MemberTypes = append(st.MemberTypes, m)
		}
		if len(st.MemberTypes) == 0 {
			return nil, errAt(body, "union requires at least one member type")
		}
	default:
		return nil, errAt(body, "simpleType requires restriction, list or union")
	}
	st.resolveChain()
	if !name.IsZero() {
		p.schema.Types[name] = st
	}
	return st, nil
}

// simpleBase resolves a restriction's base (attribute or inline).
func (p *parser) simpleBase(body *dom.Element, context string) (*SimpleType, error) {
	if baseName := body.GetAttribute("base"); baseName != "" {
		q, err := resolveQName(body, baseName)
		if err != nil {
			return nil, errAt(body, "%v", err)
		}
		return p.buildSimpleType(q, body)
	}
	for _, inner := range schemaChildren(body) {
		if inner.LocalName() == "simpleType" {
			return p.parseSimpleType(inner, QName{}, context+" base")
		}
	}
	return nil, errAt(body, "restriction requires base or an inline simpleType")
}

// buildSimpleType resolves a type name that must denote a simple type.
func (p *parser) buildSimpleType(q QName, at *dom.Element) (*SimpleType, error) {
	t, err := p.buildType(q)
	if err != nil {
		return nil, err
	}
	st, ok := t.(*SimpleType)
	if !ok {
		return nil, errAt(at, "%s is not a simple type", q)
	}
	return st, nil
}

// parseFacets parses the facet children of a restriction into st.Facets.
// Facet bound/enumeration values are validated against the base type.
func (p *parser) parseFacets(body *dom.Element, st *SimpleType) error {
	f := &st.Facets
	parseBound := func(c *dom.Element) (*xsdtypes.Value, error) {
		lex := c.GetAttribute("value")
		base := st.Base
		if base == nil {
			return nil, errAt(c, "facet on type without base")
		}
		v, err := base.Parse(lex)
		if err != nil {
			return nil, errAt(c, "facet value %q is not valid against the base type: %v", lex, err)
		}
		return &v, nil
	}
	parseInt := func(c *dom.Element) (*int, error) {
		lex := c.GetAttribute("value")
		n, err := strconv.Atoi(lex)
		if err != nil || n < 0 {
			return nil, errAt(c, "facet value %q must be a non-negative integer", lex)
		}
		return &n, nil
	}
	for _, c := range schemaChildren(body) {
		var err error
		switch c.LocalName() {
		case "length":
			f.Length, err = parseInt(c)
		case "minLength":
			f.MinLength, err = parseInt(c)
		case "maxLength":
			f.MaxLength, err = parseInt(c)
		case "totalDigits":
			f.TotalDigits, err = parseInt(c)
		case "fractionDigits":
			f.FractionDigits, err = parseInt(c)
		case "pattern":
			var re *xsdregex.Regexp
			re, err = xsdregex.Compile(c.GetAttribute("value"))
			if err == nil {
				f.Patterns = append(f.Patterns, re)
			}
		case "enumeration":
			var v *xsdtypes.Value
			v, err = parseBound(c)
			if err == nil {
				f.Enumeration = append(f.Enumeration, *v)
			}
		case "minInclusive":
			f.MinInclusive, err = parseBound(c)
		case "maxInclusive":
			f.MaxInclusive, err = parseBound(c)
		case "minExclusive":
			f.MinExclusive, err = parseBound(c)
		case "maxExclusive":
			f.MaxExclusive, err = parseBound(c)
		case "whiteSpace":
			f.WhiteSpace, err = parseWhiteSpace(c, st)
		case "simpleType", "attribute", "attributeGroup", "anyAttribute":
			// Inline base (handled by simpleBase) or attribute uses
			// (handled by simpleContent restriction).
		default:
			err = errAt(c, "unsupported facet")
		}
		if err != nil {
			return err
		}
	}
	if err := checkFacetStep(f); err != nil {
		return errAt(body, "%s: %v", st.displayName(), err)
	}
	return nil
}

// wsNames spells the whitespace rules as the whiteSpace facet does.
var wsNames = []string{xsdtypes.WSPreserve: "preserve", xsdtypes.WSReplace: "replace", xsdtypes.WSCollapse: "collapse"}

// parseWhiteSpace reads st's whiteSpace facet, which may keep or tighten
// its base's rule but not loosen it (Part 2 §4.3.6.4).
func parseWhiteSpace(c *dom.Element, st *SimpleType) (*xsdtypes.WhiteSpace, error) {
	lex := c.GetAttribute("value")
	ws := xsdtypes.WhiteSpace(slices.Index(wsNames, lex))
	if ws < 0 {
		return nil, errAt(c, "bad whiteSpace value %q", lex)
	}
	if st.Base != nil && ws < st.Base.ws {
		return nil, errAt(c, "whiteSpace %q of %s is looser than its base's %q", lex, st.displayName(), wsNames[st.Base.ws])
	}
	return &ws, nil
}

// checkFacetStep rejects facets of one restriction step that contradict
// each other (Part 2 §4.3.1.4, §4.3.2.4, §4.3.7.4, §4.3.9.4, §4.3.10.4,
// §4.3.12.4). Conflicts with the base's facets are not checked.
func checkFacetStep(f *xsdtypes.Facets) error {
	switch {
	case f.Length != nil && (f.MinLength != nil || f.MaxLength != nil):
		return errors.New("length cannot be given with minLength or maxLength")
	case f.MinLength != nil && f.MaxLength != nil && *f.MinLength > *f.MaxLength:
		return fmt.Errorf("minLength %d is greater than maxLength %d", *f.MinLength, *f.MaxLength)
	case f.TotalDigits != nil && f.FractionDigits != nil && *f.FractionDigits > *f.TotalDigits:
		return fmt.Errorf("fractionDigits %d is greater than totalDigits %d", *f.FractionDigits, *f.TotalDigits)
	case f.MinInclusive != nil && f.MinExclusive != nil:
		return errors.New("minInclusive and minExclusive cannot both be given")
	case f.MaxInclusive != nil && f.MaxExclusive != nil:
		return errors.New("maxInclusive and maxExclusive cannot both be given")
	}
	lo, loName := f.MinInclusive, "minInclusive"
	if f.MinExclusive != nil {
		lo, loName = f.MinExclusive, "minExclusive"
	}
	hi, hiName := f.MaxInclusive, "maxInclusive"
	if f.MaxExclusive != nil {
		hi, hiName = f.MaxExclusive, "maxExclusive"
	}
	if lo == nil || hi == nil {
		return nil
	}
	// Two inclusive or two exclusive bounds may meet; mixed ones may not.
	strict := (f.MinExclusive != nil) != (f.MaxExclusive != nil)
	switch c, err := xsdtypes.Compare(*lo, *hi); {
	case err != nil: // unordered values: no verdict
	case c > 0:
		return fmt.Errorf("%s %s is greater than %s %s", loName, lo, hiName, hi)
	case c == 0 && strict:
		return fmt.Errorf("%s %s is not less than %s %s", loName, lo, hiName, hi)
	}
	return nil
}

// indexSubstitutionGroups builds the transitive head -> members index.
func (p *parser) indexSubstitutionGroups() {
	for _, decl := range p.schema.Elements {
		for head := decl.SubstitutionHead; head != nil; head = head.SubstitutionHead {
			p.schema.substitutionMembers[head.Name] = append(p.schema.substitutionMembers[head.Name], decl)
		}
	}
	// Deterministic order for code generation.
	for head, members := range p.schema.substitutionMembers {
		sortDecls(members)
		p.schema.substitutionMembers[head] = members
	}
}

func sortDecls(ds []*ElementDecl) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && lessQName(ds[j].Name, ds[j-1].Name); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func lessQName(a, b QName) bool {
	if a.Space != b.Space {
		return a.Space < b.Space
	}
	return a.Local < b.Local
}
