package bind

import (
	"repro/internal/xsd"
)

// Plan is the schema's binding plan: one TypePlan per complex type,
// derived once from occurrence bounds, compositors and substitution
// groups. A Plan is immutable after construction and safe for concurrent
// use.
type Plan struct {
	schema *xsd.Schema
	types  map[*xsd.ComplexType]*TypePlan
}

// TypePlan is the binding view of one complex type's content model.
type TypePlan struct {
	// Fields lists the element fields in declaration order; this is the
	// JSON emission order.
	Fields []*FieldPlan
	// HasWildcard reports whether the model admits wildcard children
	// (they bind under the "$any" key).
	HasWildcard bool

	// byKey maps each field's JSON key to its index in Fields.
	byKey map[string]int
	// byName maps every admissible instance name — the declared name and
	// every substitution-group member — to its field.
	byName map[xsd.QName]*FieldPlan
	// members maps each admissible instance name to the declaration that
	// governs it (the member itself for substitutions).
	members map[xsd.QName]*xsd.ElementDecl
}

// FieldPlan is one element field of a complex type.
type FieldPlan struct {
	// Key is the JSON object key (the declared element's local name,
	// expanded to "{space}local" on a collision).
	Key string
	// Decl is the declared element (the substitution-group head when the
	// field admits substitutes).
	Decl *xsd.ElementDecl
	// Plural marks fields whose effective maximum occurrence exceeds one
	// (directly, through an enclosing group, or by appearing at several
	// positions of the model); plural fields always bind as JSON arrays.
	Plural bool
	// Optional marks fields whose effective minimum occurrence is zero
	// (directly, through an enclosing group, or inside a choice).
	Optional bool
	// Choice is the 1-based identifier of the nearest enclosing choice
	// compositor, 0 outside any choice: fields sharing a Choice are
	// alternatives of a tagged union.
	Choice int

	index int // in TypePlan.Fields
}

// NewPlan derives the binding plan for every complex type in the schema
// (global and anonymous).
func NewPlan(s *xsd.Schema) *Plan {
	p := &Plan{schema: s, types: map[*xsd.ComplexType]*TypePlan{}}
	for _, t := range s.Types {
		if ct, ok := t.(*xsd.ComplexType); ok {
			p.add(ct)
		}
	}
	for _, t := range s.AnonymousTypes() {
		if ct, ok := t.(*xsd.ComplexType); ok {
			p.add(ct)
		}
	}
	return p
}

// For returns the type's plan, or nil for simple types and types outside
// the schema.
func (p *Plan) For(t xsd.Type) *TypePlan {
	ct, ok := t.(*xsd.ComplexType)
	if !ok {
		return nil
	}
	return p.types[ct]
}

// Field returns the field an instance element name binds to, or nil.
func (tp *TypePlan) Field(name xsd.QName) *FieldPlan { return tp.byName[name] }

// Member returns the declaration governing an instance element name.
func (tp *TypePlan) Member(name xsd.QName) *xsd.ElementDecl { return tp.members[name] }

// fieldByLocal finds the field and governing declaration for a bare local
// name (used when reconstructing values from JSON, where namespaces are
// not spelled out). Declared names win over substitution members.
func (tp *TypePlan) fieldByLocal(local string) (*FieldPlan, *xsd.ElementDecl) {
	for _, f := range tp.Fields {
		if f.Decl.Name.Local == local {
			return f, tp.members[f.Decl.Name]
		}
	}
	for name, decl := range tp.members {
		if name.Local == local {
			return tp.byName[name], decl
		}
	}
	return nil, nil
}

func (p *Plan) add(ct *xsd.ComplexType) *TypePlan {
	if tp, ok := p.types[ct]; ok {
		return tp
	}
	tp := &TypePlan{
		byName:  map[xsd.QName]*FieldPlan{},
		members: map[xsd.QName]*xsd.ElementDecl{},
	}
	p.types[ct] = tp
	if ct.Kind == xsd.ContentElementOnly || ct.Kind == xsd.ContentMixed {
		w := &planWalker{p: p, tp: tp}
		w.particle(ct.Particle, false, false, 0)
	}
	return tp
}

// planWalker derives fields from one content-model particle tree.
type planWalker struct {
	p       *Plan
	tp      *TypePlan
	nchoice int
}

func (w *planWalker) particle(pt *xsd.Particle, plural, optional bool, choice int) {
	if pt == nil {
		return
	}
	plural = plural || pt.Max == xsd.Unbounded || pt.Max > 1
	optional = optional || pt.Min == 0
	switch {
	case pt.Element != nil:
		w.element(pt.Element, plural, optional, choice)
	case pt.Wildcard != nil:
		w.tp.HasWildcard = true
	case pt.Group != nil:
		childChoice := choice
		childOptional := optional
		if pt.Group.Kind == xsd.Choice {
			w.nchoice++
			childChoice = w.nchoice
			// An arm of a multi-arm choice may always be absent (the
			// other arm was taken), whatever its own minOccurs says.
			if len(pt.Group.Particles) > 1 {
				childOptional = true
			}
		}
		for _, c := range pt.Group.Particles {
			w.particle(c, plural, childOptional, childChoice)
		}
	}
}

func (w *planWalker) element(decl *xsd.ElementDecl, plural, optional bool, choice int) {
	if f := w.tp.byName[decl.Name]; f != nil {
		// The same declaration at a second position: occurrences may
		// exceed one even if each position is singular.
		f.Plural = true
		return
	}
	key := decl.Name.Local
	for _, other := range w.tp.Fields {
		if other.Key == key {
			key = decl.Name.String()
			break
		}
	}
	f := &FieldPlan{Key: key, Decl: decl, Plural: plural, Optional: optional, Choice: choice, index: len(w.tp.Fields)}
	if w.tp.byKey == nil {
		w.tp.byKey = map[string]int{}
	}
	w.tp.byKey[key] = len(w.tp.Fields)
	w.tp.Fields = append(w.tp.Fields, f)
	w.tp.byName[decl.Name] = f
	if !decl.Abstract {
		w.tp.members[decl.Name] = decl
	}
	if decl.Global {
		for _, m := range w.p.schema.SubstitutionMembers(decl.Name) {
			if m.Abstract {
				continue
			}
			w.tp.byName[m.Name] = f
			w.tp.members[m.Name] = m
		}
	}
}
