package xsd

import (
	"fmt"
	"sync"

	"repro/internal/contentmodel"
)

// CompileParticle lowers a schema particle to a contentmodel particle,
// expanding substitution groups into leaf name sets and dropping the
// schema-level group names.
func (s *Schema) CompileParticle(p *Particle) *contentmodel.Particle {
	if p == nil {
		return &contentmodel.Particle{Min: 1, Max: 1, Group: &contentmodel.Group{Kind: contentmodel.Sequence}}
	}
	out := &contentmodel.Particle{Min: p.Min, Max: p.Max}
	switch {
	case p.Element != nil:
		leaf := &contentmodel.Leaf{Data: p.Element}
		head := p.Element
		if !head.Abstract {
			leaf.Names = append(leaf.Names, contentmodel.Symbol{Space: head.Name.Space, Local: head.Name.Local})
		}
		if head.Global {
			for _, m := range s.SubstitutionMembers(head.Name) {
				if m.Abstract {
					continue
				}
				leaf.Names = append(leaf.Names, contentmodel.Symbol{Space: m.Name.Space, Local: m.Name.Local})
			}
		}
		out.Leaf = leaf
	case p.Wildcard != nil:
		out.Leaf = &contentmodel.Leaf{Wildcard: p.Wildcard, Data: p.Wildcard}
	case p.Group != nil:
		g := &contentmodel.Group{Kind: p.Group.Kind}
		for _, c := range p.Group.Particles {
			g.Children = append(g.Children, s.CompileParticle(c))
		}
		out.Group = g
	default:
		out.Group = &contentmodel.Group{Kind: contentmodel.Sequence}
	}
	return out
}

// model is a complex type's one compiled content model: the Glushkov
// automaton, or the backtracking interpreter past the position budget,
// with the UPA verdict taken on that same automaton. The lazy DFA is
// attached at first Matcher use, so a parse that only checks UPA builds
// no more than the automaton.
type model struct {
	once    sync.Once
	matcher contentmodel.Matcher
	upa     error
	dfaOnce sync.Once
}

// compile builds the type's model once; concurrent callers block until the
// first build finishes.
func (c *ComplexType) compile(s *Schema) *model {
	m := &c.model
	m.once.Do(func() {
		m.matcher = contentmodel.Compile(s.CompileParticle(c.Particle))
		if g, ok := m.matcher.(*contentmodel.Glushkov); ok {
			m.upa = g.CheckUPA() // an interpreter model is too large to check
		}
	})
	return m
}

// Matcher returns the type's compiled content model, building it on first
// use. A UPA-clean automaton gets the lazy DFA, sharing the schema-wide
// symbol interner so transition lookups are a single array index. Every
// consumer — the validator, bind, vdom, pxml and compat — reads this one
// instance; it is immutable and safe for concurrent Match calls and Runs.
func (c *ComplexType) Matcher(s *Schema) contentmodel.Matcher {
	m := c.compile(s)
	m.dfaOnce.Do(func() {
		if g, ok := m.matcher.(*contentmodel.Glushkov); ok {
			g.EnableDFA(s.symbols)
		}
	})
	return m.matcher
}

// CheckUPA verifies Unique Particle Attribution for the type's content
// model. Models too large for the position automaton are not checked (the
// spec's check is approximated by the Glushkov overlap test). It reads the
// automaton Matcher returns, and is safe to call concurrently.
func (c *ComplexType) CheckUPA(s *Schema) error {
	return c.compile(s).upa
}

// ResolveChild maps an instance child-element name to the declaration that
// actually governs it: the declared element itself, or a member of its
// substitution group.
func (s *Schema) ResolveChild(declared *ElementDecl, name QName) (*ElementDecl, error) {
	if declared.Name == name {
		if declared.Abstract {
			return nil, fmt.Errorf("element %s is abstract and cannot appear in instances", name)
		}
		return declared, nil
	}
	if g, ok := s.Elements[name]; ok {
		for h := g.SubstitutionHead; h != nil; h = h.SubstitutionHead {
			if h == declared || h.Name == declared.Name {
				if g.Abstract {
					return nil, fmt.Errorf("element %s is abstract and cannot appear in instances", name)
				}
				return g, nil
			}
		}
	}
	return nil, fmt.Errorf("element %s cannot substitute for %s", name, declared.Name)
}

// checkDerivationCycles rejects complex types whose Base chain loops (a
// type extending or restricting itself, directly or transitively).
func (s *Schema) checkDerivationCycles() error {
	check := func(name string, t Type) error {
		slow, fast := t, t
		for {
			if fast == nil {
				return nil
			}
			fast = fast.BaseType()
			if fast == nil {
				return nil
			}
			fast = fast.BaseType()
			slow = slow.BaseType()
			if fast != nil && fast == slow {
				return fmt.Errorf("xsd: type %s is part of a derivation cycle", name)
			}
		}
	}
	for name, t := range s.Types {
		if name.Space == XSDNamespace {
			continue
		}
		if err := check(name.String(), t); err != nil {
			return err
		}
	}
	return nil
}

// CheckAllUPA runs the UPA check over every complex type in the schema and
// returns the first violation.
func (s *Schema) CheckAllUPA() error {
	for name, t := range s.Types {
		ct, ok := t.(*ComplexType)
		if !ok || name.Space == XSDNamespace {
			continue
		}
		if err := ct.CheckUPA(s); err != nil {
			return fmt.Errorf("type %s: %w", name, err)
		}
	}
	for _, t := range s.anonTypes {
		if ct, ok := t.(*ComplexType); ok {
			if err := ct.CheckUPA(s); err != nil {
				return fmt.Errorf("anonymous type (%s): %w", ct.Context, err)
			}
		}
	}
	return nil
}
