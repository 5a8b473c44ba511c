package xsd

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/contentmodel"
	"repro/internal/xsdtypes"
)

// XSDNamespace is the XML Schema namespace.
const XSDNamespace = xsdtypes.XSDNamespace

// XSINamespace is the XML Schema instance namespace.
const XSINamespace = xsdtypes.XSINamespace

// QName is a namespace-qualified schema component name.
type QName struct {
	Space string
	Local string
}

// String renders the name in Clark notation.
func (q QName) String() string {
	if q.Space == "" {
		return q.Local
	}
	return "{" + q.Space + "}" + q.Local
}

// IsZero reports whether the name is unset (anonymous component).
func (q QName) IsZero() bool { return q.Local == "" }

// Type is a simple or complex type definition.
type Type interface {
	// TypeName returns the component name; zero for anonymous types.
	TypeName() QName
	// IsSimple distinguishes simple from complex types.
	IsSimple() bool
	// BaseType returns the derivation base, or nil (anyType for complex
	// roots, anySimpleType handled inside SimpleType chains).
	BaseType() Type
}

// Derivation is the derivation method of a complex type.
type Derivation int

// Derivation methods.
const (
	DeriveNone Derivation = iota
	DeriveExtension
	DeriveRestriction
)

// String names the derivation method.
func (d Derivation) String() string {
	switch d {
	case DeriveExtension:
		return "extension"
	case DeriveRestriction:
		return "restriction"
	default:
		return "none"
	}
}

// Variety is the variety of a simple type.
type Variety int

// Simple type varieties.
const (
	VarietyAtomic Variety = iota
	VarietyList
	VarietyUnion
)

// SimpleType is a simple type definition: a built-in, or a user-defined
// restriction / list / union.
type SimpleType struct {
	// Name is empty for anonymous types (normalize assigns one).
	Name QName
	// Builtin is non-nil when this type IS a built-in.
	Builtin *xsdtypes.Builtin
	// Base is the restriction base (nil for built-ins and for list/union
	// varieties derived directly from anySimpleType).
	Base *SimpleType
	// Variety is atomic, list or union.
	Variety Variety
	// Facets are the constraining facets added at this derivation step.
	Facets xsdtypes.Facets
	// ItemType is the list item type (Variety == VarietyList).
	ItemType *SimpleType
	// MemberTypes are the union members (Variety == VarietyUnion).
	MemberTypes []*SimpleType
	// Context records where an anonymous type was defined, for the
	// normalization naming scheme.
	Context string
}

// TypeName implements Type.
func (s *SimpleType) TypeName() QName { return s.Name }

// IsSimple implements Type.
func (s *SimpleType) IsSimple() bool { return true }

// BaseType implements Type.
func (s *SimpleType) BaseType() Type {
	if s.Base == nil {
		return nil
	}
	return s.Base
}

// effectiveWhiteSpace returns the whitespace mode, honoring overrides.
func (s *SimpleType) effectiveWhiteSpace() xsdtypes.WhiteSpace {
	for t := s; t != nil; t = t.Base {
		if t.Facets.WhiteSpace != nil {
			return *t.Facets.WhiteSpace
		}
		if t.Builtin != nil {
			return t.Builtin.WS
		}
	}
	return xsdtypes.WSCollapse
}

// PrimitiveBuiltin returns the built-in the atomic chain bottoms out in.
func (s *SimpleType) PrimitiveBuiltin() *xsdtypes.Builtin {
	for t := s; t != nil; t = t.Base {
		if t.Builtin != nil {
			return t.Builtin
		}
	}
	return nil
}

// Parse validates a lexical value against the simple type and returns the
// parsed value.
func (s *SimpleType) Parse(lexical string) (xsdtypes.Value, error) {
	norm := xsdtypes.ApplyWhiteSpace(s.effectiveWhiteSpace(), lexical)
	v, err := s.parseNormalized(norm)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	if err := s.checkSteps(&v, norm); err != nil {
		return xsdtypes.Value{}, fmt.Errorf("%s: %w", s.displayName(), err)
	}
	return v, nil
}

// checkSteps applies the user facet steps of s's derivation chain from the
// base outward, recursing to the built-in before checking s, so the walk
// needs no slice of the chain.
func (s *SimpleType) checkSteps(v *xsdtypes.Value, norm string) error {
	if s == nil || s.Builtin != nil {
		return nil
	}
	if err := s.Base.checkSteps(v, norm); err != nil {
		return err
	}
	if !s.Facets.IsEmpty() {
		return s.Facets.Check(*v, norm)
	}
	return nil
}

// parseNormalized parses a whitespace-normalized lexical value in the
// type's value space (without this type's user facet steps).
func (s *SimpleType) parseNormalized(norm string) (xsdtypes.Value, error) {
	switch s.Variety {
	case VarietyList:
		var items []xsdtypes.Value
		if norm != "" {
			for _, part := range strings.Fields(norm) {
				iv, err := s.ItemType.Parse(part)
				if err != nil {
					return xsdtypes.Value{}, fmt.Errorf("list item %q: %w", part, err)
				}
				items = append(items, iv)
			}
		}
		return xsdtypes.Value{Kind: xsdtypes.VList, Items: items}, nil
	case VarietyUnion:
		var firstErr error
		for _, m := range s.MemberTypes {
			v, err := m.Parse(norm)
			if err == nil {
				return v, nil
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		return xsdtypes.Value{}, fmt.Errorf("%s: no union member accepts %q: %w", s.displayName(), norm, firstErr)
	default:
		if s.Builtin != nil {
			return s.Builtin.Parse(norm)
		}
		if s.Base != nil {
			return s.Base.Parse(norm)
		}
		return xsdtypes.Value{Kind: xsdtypes.VString, Str: norm}, nil
	}
}

// Validate checks a lexical value, discarding the parsed form.
func (s *SimpleType) Validate(lexical string) error {
	_, err := s.Parse(lexical)
	return err
}

// DerivesFrom reports whether s is anc or derives from it (restriction,
// list item or union membership are all treated as derivation here).
func (s *SimpleType) DerivesFrom(anc *SimpleType) bool {
	for t := s; t != nil; t = t.Base {
		if t == anc {
			return true
		}
		if t.Builtin != nil && anc.Builtin != nil && t.Builtin.DerivesFrom(anc.Builtin) {
			return true
		}
	}
	return false
}

func (s *SimpleType) displayName() string {
	if !s.Name.IsZero() {
		return s.Name.Local
	}
	if s.Context != "" {
		return "anonymous type (" + s.Context + ")"
	}
	return "anonymous simple type"
}

// ContentKind classifies a complex type's content.
type ContentKind int

// Content kinds.
const (
	// ContentEmpty has no children and no character data.
	ContentEmpty ContentKind = iota
	// ContentSimple has character data of a simple type and no children.
	ContentSimple
	// ContentElementOnly has child elements per the content model.
	ContentElementOnly
	// ContentMixed allows character data interleaved with the model.
	ContentMixed
)

// ComplexType is a complex type definition.
type ComplexType struct {
	// Name is empty for anonymous types.
	Name     QName
	Abstract bool
	// Base is the derivation base; nil means ur-type (xs:anyType).
	Base      Type
	DerivedBy Derivation
	// Kind classifies the content.
	Kind ContentKind
	// Particle is the content model for element-only/mixed content. It
	// is this type's *effective* particle: for extension it already
	// includes the base's particle as a leading sequence member.
	Particle *Particle
	// SimpleContentType is the character-data type for ContentSimple.
	SimpleContentType *SimpleType
	// AttributeUses are the declared attributes (including inherited).
	AttributeUses []*AttributeUse
	// AttrWildcard admits additional attributes (xs:anyAttribute).
	AttrWildcard *contentmodel.Wildcard
	// Context records where an anonymous type was defined.
	Context string

	// model is the compiled content model (compile.go).
	model model
}

// TypeName implements Type.
func (c *ComplexType) TypeName() QName { return c.Name }

// IsSimple implements Type.
func (c *ComplexType) IsSimple() bool { return false }

// BaseType implements Type.
func (c *ComplexType) BaseType() Type { return c.Base }

// DerivesFrom reports whether c equals anc or derives from it.
func (c *ComplexType) DerivesFrom(anc Type) bool {
	var t Type = c
	for t != nil {
		if t == anc {
			return true
		}
		t = t.BaseType()
	}
	return false
}

// FindAttributeUse looks up an attribute use by name.
func (c *ComplexType) FindAttributeUse(name QName) *AttributeUse {
	for _, u := range c.AttributeUses {
		if u.Decl.Name == name {
			return u
		}
	}
	return nil
}

// ElementDecl is an element declaration.
type ElementDecl struct {
	Name QName
	Type Type
	// Global marks top-level declarations (only these can head
	// substitution groups or be substituted).
	Global   bool
	Abstract bool
	Nillable bool
	// SubstitutionHead is the declaration this element may substitute.
	SubstitutionHead *ElementDecl
	// Default and Fixed are the value constraints.
	Default *string
	Fixed   *string
	// Constraints are the identity constraints (unique/key/keyref)
	// scoped to this element. The paper explicitly excludes these
	// ("Currently we do not handle identity constraints"); they are
	// implemented here as an extension, used by the validator only.
	Constraints []*IdentityConstraint

	fixed parsedOnce
}

// FixedValue returns the element's fixed value parsed in st, its effective
// simple type, and false when it has none or the value does not parse. The
// declared type's parse is done once per declaration; an xsi:type override
// parses on every call.
func (d *ElementDecl) FixedValue(st *SimpleType) (xsdtypes.Value, bool) {
	if d.Fixed == nil {
		return xsdtypes.Value{}, false
	}
	if d.Type != Type(st) {
		v, err := st.Parse(*d.Fixed)
		return v, err == nil
	}
	return d.fixed.parse(st, *d.Fixed)
}

// parsedOnce caches one lexical value parsed in one simple type. It is
// filled on first use and published atomically, so concurrent validations
// share it; two first uses racing both parse and store equal results. It
// is one pointer wide, since every declaration carries one.
type parsedOnce struct {
	p atomic.Pointer[parsedValue]
}

type parsedValue struct {
	val xsdtypes.Value
	ok  bool
}

func (c *parsedOnce) parse(st *SimpleType, lexical string) (xsdtypes.Value, bool) {
	pv := c.p.Load()
	if pv == nil {
		v, err := st.Parse(lexical)
		pv = &parsedValue{v, err == nil}
		c.p.Store(pv)
	}
	return pv.val, pv.ok
}

// ConstraintKind distinguishes unique, key and keyref.
type ConstraintKind int

// Identity constraint kinds.
const (
	ConstraintUnique ConstraintKind = iota
	ConstraintKey
	ConstraintKeyref
)

// String names the constraint kind.
func (k ConstraintKind) String() string {
	switch k {
	case ConstraintKey:
		return "key"
	case ConstraintKeyref:
		return "keyref"
	default:
		return "unique"
	}
}

// IdentityConstraint is an xs:unique / xs:key / xs:keyref definition.
type IdentityConstraint struct {
	Kind ConstraintKind
	Name QName
	// Selector is the restricted XPath selecting the constrained nodes
	// relative to the declaring element, one entry per alternative.
	Selector []XPath
	// Fields are the restricted XPaths producing each key member.
	Fields [][]XPath
	// Refer names the key a keyref resolves against.
	Refer QName
}

// AttributeDecl is an attribute declaration.
type AttributeDecl struct {
	Name QName
	Type *SimpleType
}

// AttributeUse is an attribute declaration attached to a complex type.
type AttributeUse struct {
	Decl     *AttributeDecl
	Required bool
	// Prohibited removes an inherited attribute in a restriction.
	Prohibited bool
	Default    *string
	Fixed      *string

	fixed parsedOnce
}

// FixedValue returns the use's fixed value parsed in the attribute's type,
// and false when it has none or the value does not parse. The parse is
// done once per use.
func (u *AttributeUse) FixedValue() (xsdtypes.Value, bool) {
	if u.Fixed == nil {
		return xsdtypes.Value{}, false
	}
	return u.fixed.parse(u.Decl.Type, *u.Fixed)
}

// ModelGroupDef is a named model group (xs:group definition).
type ModelGroupDef struct {
	Name     QName
	Particle *Particle
}

// AttributeGroupDef is a named attribute group.
type AttributeGroupDef struct {
	Name          QName
	AttributeUses []*AttributeUse
	AttrWildcard  *contentmodel.Wildcard
}

// GroupKind re-exports the compositor kinds.
type GroupKind = contentmodel.GroupKind

// Compositors.
const (
	Sequence = contentmodel.Sequence
	Choice   = contentmodel.Choice
	All      = contentmodel.All
)

// Unbounded re-exports maxOccurs="unbounded".
const Unbounded = contentmodel.Unbounded

// Particle is a schema-level particle: an element declaration, a wildcard
// or a model group, with occurrence bounds.
type Particle struct {
	Min int
	Max int // Unbounded for maxOccurs="unbounded"

	// Exactly one of the following is set.
	Element  *ElementDecl
	Wildcard *contentmodel.Wildcard
	Group    *ModelGroup
	// GroupRefName names the referenced xs:group before resolution; the
	// resolver replaces it with the definition's particle.
	GroupRefName QName
}

// ModelGroup is a sequence/choice/all group of particles.
type ModelGroup struct {
	Kind      GroupKind
	Particles []*Particle
	// DefName is set when this group came from a named xs:group
	// definition — the paper's "explicit naming" (§3).
	DefName QName
}

// Schema is a resolved schema: the symbol tables of all global components.
type Schema struct {
	TargetNamespace string
	// QualifiedLocal reports whether locally declared elements are
	// namespace-qualified (elementFormDefault="qualified").
	QualifiedLocal     bool
	QualifiedLocalAttr bool

	Elements        map[QName]*ElementDecl
	Types           map[QName]Type
	Groups          map[QName]*ModelGroupDef
	AttributeGroups map[QName]*AttributeGroupDef
	Attributes      map[QName]*AttributeDecl

	// substitutionMembers indexes substitution groups: head name ->
	// member declarations (transitively).
	substitutionMembers map[QName][]*ElementDecl

	// anonTypes collects anonymous types in definition order so that
	// normalization and code generation are deterministic.
	anonTypes []Type

	// symbols is the schema-wide content-model symbol interner: every
	// element name across every compiled content model maps to one dense
	// ID, so the lazy-DFA executors can index transition tables instead of
	// comparing names.
	symbols *contentmodel.Interner

	// sources lists the canonical keys of every document that contributed
	// components (root first, then referenced documents in load order).
	// Populated only when the schema was parsed through a Resolver
	// (ParseFile); the registry stats this closure to decide which schemas
	// a file edit invalidates.
	sources []string
}

// Sources returns the canonical document keys (file paths, for
// DirResolver) this schema was composed from: the root document first,
// then every included/imported/redefined document in load order. Empty for
// schemas parsed from bytes without a Resolver. The returned slice is
// owned by the schema; callers must not mutate it.
func (s *Schema) Sources() []string { return s.sources }

// NewSchema creates an empty schema with the built-in types preloaded.
func NewSchema(targetNS string) *Schema {
	s := &Schema{
		TargetNamespace:     targetNS,
		Elements:            map[QName]*ElementDecl{},
		Types:               map[QName]Type{},
		Groups:              map[QName]*ModelGroupDef{},
		AttributeGroups:     map[QName]*AttributeGroupDef{},
		Attributes:          map[QName]*AttributeDecl{},
		substitutionMembers: map[QName][]*ElementDecl{},
		symbols:             contentmodel.NewInterner(),
	}
	for _, name := range xsdtypes.Names() {
		b, _ := xsdtypes.Lookup(name)
		s.Types[QName{Space: XSDNamespace, Local: name}] = &SimpleType{
			Name:    QName{Space: XSDNamespace, Local: name},
			Builtin: b,
		}
	}
	// xs:anyType: the ur-type, a complex type with mixed wildcard
	// content and any attributes.
	anyType := &ComplexType{
		Name: QName{Space: XSDNamespace, Local: "anyType"},
		Kind: ContentMixed,
		Particle: &Particle{Min: 1, Max: 1, Group: &ModelGroup{Kind: Sequence, Particles: []*Particle{
			{Min: 0, Max: Unbounded, Wildcard: &contentmodel.Wildcard{Kind: contentmodel.WildAny}},
		}}},
		AttrWildcard: &contentmodel.Wildcard{Kind: contentmodel.WildAny},
	}
	s.Types[anyType.Name] = anyType
	return s
}

// AnyType returns the xs:anyType definition.
func (s *Schema) AnyType() *ComplexType {
	return s.Types[QName{Space: XSDNamespace, Local: "anyType"}].(*ComplexType)
}

// LookupType resolves a type name (built-ins included).
func (s *Schema) LookupType(name QName) (Type, bool) {
	t, ok := s.Types[name]
	return t, ok
}

// LookupElement resolves a global element declaration.
func (s *Schema) LookupElement(name QName) (*ElementDecl, bool) {
	e, ok := s.Elements[name]
	return e, ok
}

// SubstitutionMembers returns the declarations that may substitute for the
// named head (not including the head itself), transitively.
func (s *Schema) SubstitutionMembers(head QName) []*ElementDecl {
	return s.substitutionMembers[head]
}

// SimpleTypeOf returns the named built-in as a *SimpleType.
func (s *Schema) SimpleTypeOf(local string) *SimpleType {
	t, ok := s.Types[QName{Space: XSDNamespace, Local: local}]
	if !ok {
		panic("xsd: unknown builtin " + local)
	}
	return t.(*SimpleType)
}

// AnonymousTypes returns anonymous types in definition order.
func (s *Schema) AnonymousTypes() []Type { return s.anonTypes }

// GlobalTypeNames returns the names of user-declared global types (not
// built-ins) in no particular order.
func (s *Schema) GlobalTypeNames() []QName {
	var out []QName
	for q := range s.Types {
		if q.Space == XSDNamespace {
			continue
		}
		out = append(out, q)
	}
	return out
}
