package codegen

// The name assignment in this file is shared with the P-XML preprocessor
// (package pxml), which must emit calls that compile against the
// generated bindings.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/normalize"
	"repro/internal/xsd"
)

// ElemNames is the set of generated identifiers for one element
// declaration.
type ElemNames struct {
	// GoType is the wrapper type name, e.g. "ShipToElement".
	GoType string
	// Create is the factory method name, e.g. "CreateShipTo".
	Create string
	// VDOM is the paper-style interface name, e.g. "shipToElement".
	VDOM string
	// Subst is the sealed substitution interface name when the element
	// heads a substitution group ("" otherwise).
	Subst string
}

// TypeNames is the set of generated identifiers for one type definition.
type TypeNames struct {
	// GoType is the generated type name ("PurchaseOrderTypeType",
	// "USAddressType", "SKU").
	GoType string
	// Create is the factory method for complex types ("" for simple).
	Create string
	// Iface is the sealed derivation interface when the complex type has
	// derived types or is abstract ("" otherwise).
	Iface string
	// VDOM is the paper-style name.
	VDOM string
}

// GroupNames is the set of generated identifiers for one promoted group.
type GroupNames struct {
	// GoType is the interface (choice) or struct (sequence) name.
	GoType string
	// Create is the struct factory for sequence groups.
	Create string
	// Marker is the unexported marker method for sealed choice
	// interfaces.
	Marker string
}

// Names assigns every generated identifier for a normalized schema.
type Names struct {
	Norm *normalize.Result

	Elements map[*xsd.ElementDecl]ElemNames
	Types    map[xsd.Type]TypeNames
	Groups   map[*xsd.ModelGroup]GroupNames

	// ElementsInOrder lists unique element declarations in deterministic
	// order (globals first, then locals by first appearance).
	ElementsInOrder []*xsd.ElementDecl

	used map[string]bool
}

// AssignNames computes all generated identifiers.
func AssignNames(norm *normalize.Result) *Names {
	n := &Names{
		Norm:     norm,
		Elements: map[*xsd.ElementDecl]ElemNames{},
		Types:    map[xsd.Type]TypeNames{},
		Groups:   map[*xsd.ModelGroup]GroupNames{},
		used: map[string]bool{
			"Document": true, "NewDocument": true, "SchemaSource": true, "RT": true,
		},
	}
	// Types first: their names anchor everything else.
	for _, ti := range norm.Types {
		tn := TypeNames{VDOM: ti.Name + "Type"}
		goName := ti.Name
		// Complex types get the paper's "...Type" suffix exactly as in
		// its appendix A (PurchaseOrderType -> PurchaseOrderTypeType,
		// USAddress -> USAddressType); simple types keep their plain
		// name (SKU).
		if _, isComplex := ti.Type.(*xsd.ComplexType); isComplex {
			goName += "Type"
		}
		goName = exportIdent(goName)
		tn.GoType = n.unique(goName)
		if ct, ok := ti.Type.(*xsd.ComplexType); ok {
			tn.Create = n.unique("Create" + tn.GoType)
			if typeHasDerivatives(norm.Schema, ct) || ct.Abstract {
				tn.Iface = n.unique(tn.GoType + "Iface")
			}
		}
		n.Types[ti.Type] = tn
	}
	// Groups.
	for _, gi := range norm.Groups {
		gn := GroupNames{GoType: n.unique(exportIdent(gi.Name))}
		if gi.Group.Kind != xsd.Choice {
			gn.Create = n.unique("Create" + gn.GoType)
		} else {
			gn.Marker = "is" + gn.GoType
		}
		n.Groups[gi.Group] = gn
	}
	// Element declarations: globals first (sorted), then locals in
	// deterministic traversal order of the type inventory.
	for _, decl := range norm.Elements {
		n.addElement(decl)
	}
	for _, ti := range norm.Types {
		if ct, ok := ti.Type.(*xsd.ComplexType); ok && ct.Particle != nil {
			n.walkParticleElements(ct.Particle)
		}
	}
	return n
}

func (n *Names) walkParticleElements(p *xsd.Particle) {
	switch {
	case p.Element != nil:
		n.addElement(p.Element)
	case p.Group != nil:
		for _, c := range p.Group.Particles {
			n.walkParticleElements(c)
		}
	}
}

// addElement assigns names for one element declaration (idempotent).
func (n *Names) addElement(decl *xsd.ElementDecl) {
	if _, done := n.Elements[decl]; done {
		return
	}
	base := exportIdent(normalizeLocal(decl.Name.Local))
	en := ElemNames{
		GoType: n.unique(base + "Element"),
		VDOM:   lowerFirst(normalizeLocal(decl.Name.Local)) + "Element",
	}
	// The Create name follows the final GoType so collisions stay
	// aligned (ShipToElement2 -> CreateShipTo2).
	createBase := strings.TrimSuffix(en.GoType, "Element")
	en.Create = n.unique("Create" + createBase)
	if decl.Global && len(n.Norm.Schema.SubstitutionMembers(decl.Name)) > 0 {
		en.Subst = n.unique(base + "Subst")
	}
	n.Elements[decl] = en
	n.ElementsInOrder = append(n.ElementsInOrder, decl)
}

// typeHasDerivatives reports whether any complex type in the schema
// derives from ct.
func typeHasDerivatives(s *xsd.Schema, ct *xsd.ComplexType) bool {
	check := func(t xsd.Type) bool {
		other, ok := t.(*xsd.ComplexType)
		if !ok || other == ct {
			return false
		}
		for b := other.Base; b != nil; b = b.BaseType() {
			if b == xsd.Type(ct) {
				return true
			}
		}
		return false
	}
	for _, t := range s.Types {
		if check(t) {
			return true
		}
	}
	for _, t := range s.AnonymousTypes() {
		if check(t) {
			return true
		}
	}
	return false
}

// unique claims a fresh identifier.
func (n *Names) unique(name string) string {
	if !n.used[name] {
		n.used[name] = true
		return name
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s%d", name, i)
		if !n.used[cand] {
			n.used[cand] = true
			return cand
		}
	}
}

// normalizeLocal maps an XML local name to identifier-safe camel case.
func normalizeLocal(s string) string {
	var parts []string
	cur := strings.Builder{}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			cur.WriteRune(r)
		default:
			if cur.Len() > 0 {
				parts = append(parts, cur.String())
				cur.Reset()
			}
		}
	}
	if cur.Len() > 0 {
		parts = append(parts, cur.String())
	}
	var b strings.Builder
	for i, p := range parts {
		if i == 0 {
			b.WriteString(p)
		} else {
			b.WriteString(upperFirst(p))
		}
	}
	out := b.String()
	if out == "" {
		out = "X"
	}
	if out[0] >= '0' && out[0] <= '9' {
		out = "X" + out
	}
	return out
}

// exportIdent upper-cases the first letter.
func exportIdent(s string) string { return upperFirst(s) }

func upperFirst(s string) string {
	if s == "" {
		return s
	}
	if s[0] >= 'a' && s[0] <= 'z' {
		return string(s[0]-'a'+'A') + s[1:]
	}
	return s
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	if s[0] >= 'A' && s[0] <= 'Z' {
		return string(s[0]-'A'+'a') + s[1:]
	}
	return s
}

// sortedTypes returns the type inventory in generation order.
func sortedTypes(norm *normalize.Result) []normalize.TypeInfo {
	out := append([]normalize.TypeInfo(nil), norm.Types...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
