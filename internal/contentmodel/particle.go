package contentmodel

import (
	"fmt"
	"sort"
	"strings"
)

// Unbounded is the Max value representing maxOccurs="unbounded".
const Unbounded = -1

// Symbol is a child-element event: a namespace/local-name pair.
type Symbol struct {
	Space string
	Local string
}

// String renders the symbol in Clark notation.
func (s Symbol) String() string {
	if s.Space == "" {
		return s.Local
	}
	return "{" + s.Space + "}" + s.Local
}

// WildcardKind describes which namespaces a wildcard admits.
type WildcardKind int

// Wildcard kinds.
const (
	// WildAny admits any namespace (##any).
	WildAny WildcardKind = iota
	// WildOther admits any namespace except the target namespace
	// (##other).
	WildOther
	// WildList admits the listed namespaces ("" stands for ##local).
	WildList
)

// Wildcard is an xs:any term.
type Wildcard struct {
	Kind WildcardKind
	// TargetNS is the schema's target namespace (for ##other).
	TargetNS string
	// Namespaces is the admitted list for WildList.
	Namespaces []string
}

// Admits reports whether the wildcard admits an element in namespace ns.
func (w *Wildcard) Admits(ns string) bool {
	switch w.Kind {
	case WildAny:
		return true
	case WildOther:
		return ns != w.TargetNS && ns != ""
	default:
		for _, n := range w.Namespaces {
			if n == ns {
				return true
			}
		}
		return false
	}
}

// RuneRange is an inclusive range of runes.
type RuneRange struct {
	Lo, Hi rune
}

// Leaf is a terminal particle: either a set of admissible element names
// (the declared element plus its substitution-group members), a
// wildcard, or, in a pattern, a set of runes.
type Leaf struct {
	// Names are the concrete element names this leaf accepts; empty for
	// a wildcard leaf.
	Names []Symbol
	// Wildcard is set for xs:any leaves.
	Wildcard *Wildcard
	// Runes are a pattern leaf's runes, as sorted, disjoint ranges
	// (CompilePattern).
	Runes []RuneRange
	// Data carries the schema component (e.g. *xsd.ElementDecl) through
	// to match results.
	Data any
}

// Accepts reports whether the leaf matches the symbol.
func (l *Leaf) Accepts(s Symbol) bool {
	if l.Wildcard != nil {
		return l.Wildcard.Admits(s.Space)
	}
	for _, n := range l.Names {
		if n == s {
			return true
		}
	}
	return false
}

// overlaps reports whether two leaves can accept a common symbol (used by
// the Unique Particle Attribution check).
func (l *Leaf) overlaps(m *Leaf) bool {
	switch {
	case l.Wildcard != nil && m.Wildcard != nil:
		return true // conservative: most wildcard pairs overlap
	case l.Wildcard != nil:
		for _, n := range m.Names {
			if l.Wildcard.Admits(n.Space) {
				return true
			}
		}
		return false
	case m.Wildcard != nil:
		return m.overlaps(l)
	default:
		for _, a := range l.Names {
			for _, b := range m.Names {
				if a == b {
					return true
				}
			}
		}
		return false
	}
}

// label names the leaf for error messages.
func (l *Leaf) label() string {
	if l.Wildcard != nil {
		return "any"
	}
	parts := make([]string, len(l.Names))
	for i, n := range l.Names {
		parts[i] = n.String()
	}
	return strings.Join(parts, "|")
}

// GroupKind is the compositor of a model group.
type GroupKind int

// Group kinds.
const (
	Sequence GroupKind = iota
	Choice
	All
)

// String returns the XSD element name of the compositor.
func (k GroupKind) String() string {
	switch k {
	case Sequence:
		return "sequence"
	case Choice:
		return "choice"
	case All:
		return "all"
	}
	return "group"
}

// Group is a model group.
type Group struct {
	Kind     GroupKind
	Children []*Particle
}

// Particle is a term with occurrence bounds. Exactly one of Leaf and Group
// is non-nil; a Particle with both nil is an empty content placeholder.
type Particle struct {
	Min  int
	Max  int // Unbounded (-1) for maxOccurs="unbounded"
	Leaf *Leaf
	// Group is the nested model group.
	Group *Group
}

// NewElementLeaf builds a leaf particle for one element name.
func NewElementLeaf(min, max int, name Symbol, data any) *Particle {
	return &Particle{Min: min, Max: max, Leaf: &Leaf{Names: []Symbol{name}, Data: data}}
}

// NewSequence builds a sequence particle.
func NewSequence(min, max int, children ...*Particle) *Particle {
	return &Particle{Min: min, Max: max, Group: &Group{Kind: Sequence, Children: children}}
}

// NewChoice builds a choice particle.
func NewChoice(min, max int, children ...*Particle) *Particle {
	return &Particle{Min: min, Max: max, Group: &Group{Kind: Choice, Children: children}}
}

// NewAll builds an all particle.
func NewAll(min, max int, children ...*Particle) *Particle {
	return &Particle{Min: min, Max: max, Group: &Group{Kind: All, Children: children}}
}

// isEmptiable reports whether the particle can match the empty sequence.
func (p *Particle) isEmptiable() bool {
	if p == nil {
		return true
	}
	if p.Min == 0 {
		return true
	}
	if p.Group == nil {
		return false
	}
	switch p.Group.Kind {
	case Choice:
		for _, c := range p.Group.Children {
			if c.isEmptiable() {
				return true
			}
		}
		return false
	default: // Sequence, All
		for _, c := range p.Group.Children {
			if !c.isEmptiable() {
				return false
			}
		}
		return true
	}
}

// String renders the particle as a regex-like expression for diagnostics.
func (p *Particle) String() string {
	if p == nil {
		return "()"
	}
	var body string
	switch {
	case p.Leaf != nil:
		body = p.Leaf.label()
	case p.Group != nil:
		parts := make([]string, len(p.Group.Children))
		for i, c := range p.Group.Children {
			parts[i] = c.String()
		}
		sep := ", "
		if p.Group.Kind == Choice {
			sep = " | "
		}
		if p.Group.Kind == All {
			sep = " & "
		}
		body = "(" + strings.Join(parts, sep) + ")"
	default:
		return "()"
	}
	switch {
	case p.Min == 1 && p.Max == 1:
		return body
	case p.Min == 0 && p.Max == 1:
		return body + "?"
	case p.Min == 0 && p.Max == Unbounded:
		return body + "*"
	case p.Min == 1 && p.Max == Unbounded:
		return body + "+"
	case p.Max == Unbounded:
		return fmt.Sprintf("%s{%d,}", body, p.Min)
	default:
		return fmt.Sprintf("%s{%d,%d}", body, p.Min, p.Max)
	}
}

// MatchError reports why a child sequence was rejected.
type MatchError struct {
	// Index is the offending child position, or len(input) when input
	// ended too early.
	Index int
	// Got is the rejected symbol (zero when input ended).
	Got Symbol
	// Expected describes what the automaton would have accepted.
	Expected []string
	// Premature marks an unexpected end of input.
	Premature bool
	// Cause, when set, says why the element could not be matched at all:
	// the run outgrew its configuration cap, so the verdict is unknown.
	Cause string
}

// Error implements the error interface.
func (e *MatchError) Error() string {
	if e.Cause != "" {
		return fmt.Sprintf("element %s at position %d: %s", e.Got, e.Index, e.Cause)
	}
	exp := "nothing"
	if len(e.Expected) > 0 {
		exp = strings.Join(e.Expected, ", ")
	}
	if e.Premature {
		return fmt.Sprintf("content ended at position %d; expected %s", e.Index, exp)
	}
	return fmt.Sprintf("unexpected element %s at position %d; expected %s", e.Got, e.Index, exp)
}

// dedupStrings sorts and deduplicates a string list (for error messages).
func dedupStrings(xs []string) []string {
	sort.Strings(xs)
	out := xs[:0]
	var last string
	for i, x := range xs {
		if i == 0 || x != last {
			out = append(out, x)
		}
		last = x
	}
	return out
}
