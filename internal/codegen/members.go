package codegen

import (
	"fmt"

	"repro/internal/xsd"
)

// MemberKind classifies a content-model member of a complex type.
type MemberKind int

// Member kinds.
const (
	// MemberElement is an element particle (paper rule 4: one attribute
	// per sequence element).
	MemberElement MemberKind = iota
	// MemberChoice is a nested choice group (rule 6: one attribute of
	// the group's super type).
	MemberChoice
	// MemberSeqGroup is a nested sequence group (promoted to its own
	// struct by the normal form).
	MemberSeqGroup
	// MemberWildcard is an xs:any particle.
	MemberWildcard
)

// Member is one generated field of a complex type (or sequence group).
type Member struct {
	Kind MemberKind
	// Field is the unexported struct field name; Accessor the exported
	// method base (Field "shipTo", Accessor "ShipTo").
	Field    string
	Accessor string
	// Min/Max are the effective occurrence bounds.
	Min, Max int
	// Elem is set for MemberElement.
	Elem *xsd.ElementDecl
	// Group is set for MemberChoice / MemberSeqGroup.
	Group *xsd.ModelGroup
}

// Repeated reports whether the member is list-valued.
func (m *Member) Repeated() bool { return m.Max == xsd.Unbounded || m.Max > 1 }

// Optional reports whether a non-repeated member may be absent.
func (m *Member) Optional() bool { return m.Min == 0 && !m.Repeated() }

// MembersOf computes the ordered member list for a complex type's content
// model (or for a promoted sequence group's particle).
func (n *Names) MembersOf(ct *xsd.ComplexType) ([]Member, error) {
	if ct.Particle == nil {
		return nil, nil
	}
	return n.membersOfParticle(ct.Particle, fmt.Sprintf("type %s", n.Types[ct].GoType))
}

// MembersOfGroup computes the member list of a promoted sequence group.
func (n *Names) MembersOfGroup(g *xsd.ModelGroup, context string) ([]Member, error) {
	var out []Member
	used := map[string]int{}
	for _, child := range g.Particles {
		m, err := n.memberFor(child, used, context)
		if err != nil {
			return nil, err
		}
		out = append(out, *m)
	}
	return out, nil
}

// membersOfParticle maps a type's effective particle to members.
func (n *Names) membersOfParticle(p *xsd.Particle, context string) ([]Member, error) {
	used := map[string]int{}
	g := p.Group
	if g == nil {
		// A bare element/wildcard as the whole content model.
		m, err := n.memberFor(p, used, context)
		if err != nil {
			return nil, err
		}
		return []Member{*m}, nil
	}
	// A repeating or choice top-level group is a single member.
	if g.Kind == xsd.Choice || p.Max == xsd.Unbounded || p.Max > 1 {
		m, err := n.memberFor(p, used, context)
		if err != nil {
			return nil, err
		}
		return []Member{*m}, nil
	}
	// Sequence (or all, which the paper treats like a sequence): one
	// member per child. An optional group (minOccurs=0) makes every
	// child optional.
	var out []Member
	for _, child := range g.Particles {
		m, err := n.memberFor(child, used, context)
		if err != nil {
			return nil, err
		}
		if p.Min == 0 && m.Min > 0 && !m.Repeated() {
			m.Min = 0
		}
		out = append(out, *m)
	}
	return out, nil
}

// memberFor builds a Member for one child particle.
func (n *Names) memberFor(p *xsd.Particle, used map[string]int, context string) (*Member, error) {
	uniqueField := func(base string) (string, string) {
		used[base]++
		if c := used[base]; c > 1 {
			base = fmt.Sprintf("%s%d", base, c)
		}
		return lowerFirst(base), upperFirst(base)
	}
	switch {
	case p.Element != nil:
		field, acc := uniqueField(normalizeLocal(p.Element.Name.Local))
		return &Member{Kind: MemberElement, Field: field, Accessor: acc, Min: p.Min, Max: p.Max, Elem: p.Element}, nil
	case p.Wildcard != nil:
		field, acc := uniqueField("any")
		return &Member{Kind: MemberWildcard, Field: field, Accessor: acc, Min: p.Min, Max: p.Max}, nil
	case p.Group != nil:
		gn, ok := n.Groups[p.Group]
		if !ok {
			// Nested groups are always named by normalization; a miss
			// indicates the particle tree changed after Normalize ran.
			return nil, fmt.Errorf("codegen: unnamed nested group in %s", context)
		}
		base := gn.GoType
		field, acc := uniqueField(lowerFirst(base))
		kind := MemberSeqGroup
		if p.Group.Kind == xsd.Choice {
			kind = MemberChoice
		}
		return &Member{Kind: kind, Field: field, Accessor: acc, Min: p.Min, Max: p.Max, Group: p.Group}, nil
	default:
		field, acc := uniqueField("empty")
		return &Member{Kind: MemberWildcard, Field: field, Accessor: acc, Min: 0, Max: 0}, nil
	}
}

// AttrMember is one generated attribute field.
type AttrMember struct {
	Use *xsd.AttributeUse
	// Field/Accessor as for Member ("attrOrderDate" / "OrderDate").
	Field    string
	Accessor string
}

// AttrsOf computes the attribute members of a complex type in declaration
// order. reserved lists accessor names already taken on the generated
// type (member accessors, Value/Content/Text and the framework methods);
// colliding attribute accessors get a numeric suffix.
func (n *Names) AttrsOf(ct *xsd.ComplexType, reserved []string) []AttrMember {
	var out []AttrMember
	used := map[string]int{
		"Value": 1, "Content": 1, "Text": 1, "Add": 1,
		"VDOMName": 1, "WriteXML": 1, "DumpInto": 1, "XMLQName": 1,
	}
	for _, r := range reserved {
		used[r] = 1
	}
	for _, use := range ct.AttributeUses {
		if use.Prohibited {
			continue
		}
		base := upperFirst(normalizeLocal(use.Decl.Name.Local))
		used[base]++
		if c := used[base]; c > 1 {
			base = fmt.Sprintf("%s%d", base, c)
		}
		out = append(out, AttrMember{Use: use, Field: "attr" + base, Accessor: base})
	}
	return out
}

// TypeAPI is the generated API surface of a complex type, shared between
// the Go emitter and the P-XML preprocessor (which must emit calls that
// compile against the generated bindings).
type TypeAPI struct {
	// Members is the ordered member list (nil for simple/mixed content).
	Members []Member
	// Attrs are the attribute members with their final accessor names.
	Attrs []AttrMember
}

// APIAttrsAndMembers computes the exact member/attribute accessor set the
// generator emits for ct.
func (n *Names) APIAttrsAndMembers(ct *xsd.ComplexType) (*TypeAPI, error) {
	var reserved []string
	var members []Member
	if ct.Kind == xsd.ContentElementOnly || ct.Kind == xsd.ContentEmpty {
		var err error
		members, err = n.MembersOf(ct)
		if err != nil {
			return nil, err
		}
		for i := range members {
			reserved = append(reserved, members[i].Accessor)
		}
	}
	return &TypeAPI{Members: members, Attrs: n.AttrsOf(ct, reserved)}, nil
}

// ContentTypeExpr returns the Go type expression used for an element
// member's value slot: the sealed substitution interface if the element
// heads a substitution group, the derivation interface if its complex
// type has derivatives, the concrete generated type otherwise. For
// simple-typed elements the element wrapper type is used.
func (n *Names) ElementSlotType(decl *xsd.ElementDecl) string {
	en := n.Elements[decl]
	if en.Subst != "" {
		return en.Subst
	}
	return "*" + en.GoType
}
