package normalize

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/xsd"
)

// Scheme selects the naming scheme for anonymous constructs.
type Scheme int

// Naming schemes.
const (
	// SchemePaper is the merged rule of §3: inherited for choices,
	// synthesized for sequences and lists, explicit names kept.
	SchemePaper Scheme = iota
	// SchemeSynthesized names every group after its members.
	SchemeSynthesized
	// SchemeInherited names every group after the defining type and the
	// position path.
	SchemeInherited
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemePaper:
		return "paper"
	case SchemeSynthesized:
		return "synthesized"
	case SchemeInherited:
		return "inherited"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// GroupInfo is one promoted (or explicitly named) model group.
type GroupInfo struct {
	// Name is the generated (or explicit) name.
	Name string
	// Group is the underlying model group.
	Group *xsd.ModelGroup
	// Particle is the particle carrying the group (occurrence bounds).
	Particle *xsd.Particle
	// Owner is the complex type the group appears in.
	Owner *xsd.ComplexType
	// Explicit marks groups that had a schema-level name (xs:group).
	Explicit bool
}

// TypeInfo is one named type in the normalized schema.
type TypeInfo struct {
	// Name is the (possibly generated) type name.
	Name string
	// Type is the component; anonymous types are promoted.
	Type xsd.Type
	// Promoted marks types that were anonymous in the source schema.
	Promoted bool
}

// Result is the outcome of normalization: a name for every type and every
// group expression, plus deterministic inventories for code generation.
type Result struct {
	Schema *xsd.Schema
	Scheme Scheme

	// TypeNames names every type, including promoted anonymous ones.
	TypeNames map[xsd.Type]string
	// GroupNames names every model group that needs an interface.
	GroupNames map[*xsd.ModelGroup]string

	// Types lists all named types in deterministic order.
	Types []TypeInfo
	// Groups lists all named groups in deterministic order.
	Groups []GroupInfo
	// Elements lists global element declarations in deterministic order.
	Elements []*xsd.ElementDecl

	used map[string]bool
}

// Normalize computes the normal form of a schema under the given scheme.
func Normalize(s *xsd.Schema, scheme Scheme) (*Result, error) {
	r := &Result{
		Schema:     s,
		Scheme:     scheme,
		TypeNames:  map[xsd.Type]string{},
		GroupNames: map[*xsd.ModelGroup]string{},
		used:       map[string]bool{},
	}
	// 1. Global elements, sorted by name.
	for _, q := range sortedElementNames(s) {
		r.Elements = append(r.Elements, s.Elements[q])
	}
	// 2. Named global types keep their names.
	for _, q := range sortedTypeNames(s) {
		t := s.Types[q]
		name := sanitizeIdent(q.Local)
		r.claim(name)
		r.TypeNames[t] = name
		r.Types = append(r.Types, TypeInfo{Name: name, Type: t})
	}
	// 3. Anonymous types get names from their defining context: the
	// paper generates "a type name" for unnamed types (rule 2). The name
	// is the element/attribute context in upper camel + "Type".
	for _, t := range s.AnonymousTypes() {
		ctx := anonContext(t)
		name := r.unique(sanitizeIdent(upperFirst(ctx)) + "Type")
		r.TypeNames[t] = name
		r.Types = append(r.Types, TypeInfo{Name: name, Type: t, Promoted: true})
	}
	// 4. Walk every complex type's particle tree and name nested groups.
	for _, info := range r.Types {
		ct, ok := info.Type.(*xsd.ComplexType)
		if !ok || ct.Particle == nil {
			continue
		}
		r.nameGroups(ct, info.Name, ct.Particle, "C", true)
	}
	return r, nil
}

// anonContext extracts the definition context of an anonymous type.
func anonContext(t xsd.Type) string {
	switch x := t.(type) {
	case *xsd.ComplexType:
		return firstWord(x.Context)
	case *xsd.SimpleType:
		return firstWord(x.Context)
	}
	return "Anon"
}

func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	if s == "" {
		return "Anon"
	}
	return s
}

// nameGroups assigns names to group expressions below particle. path is
// the inherited-naming position path so far (e.g. "C", "CC1"); top marks
// the type's own top-level group, which needs no separate name (its
// members become the type's own attributes) unless it is a choice.
func (r *Result) nameGroups(owner *xsd.ComplexType, ownerName string, particle *xsd.Particle, path string, top bool) {
	g := particle.Group
	if g == nil {
		return
	}
	// Recurse first using positional paths so sibling indexes are
	// stable: child i gets path + "C" + (i+1).
	for i, child := range g.Particles {
		r.nameGroups(owner, ownerName, child, fmt.Sprintf("%sC%d", path, i+1), false)
	}
	// A type's own top-level sequence needs no separate name (its
	// members become the type's attributes, paper rule 4) — unless it is
	// a choice (rule 6) or repeats as a whole (a list expression).
	needsName := !top || g.Kind == xsd.Choice || particleIsList(particle)
	if !needsName {
		return
	}
	if _, done := r.GroupNames[g]; done {
		return
	}
	var name string
	explicit := false
	switch {
	case !g.DefName.IsZero():
		// Paper §3: explicit naming via named group declarations.
		name = sanitizeIdent(g.DefName.Local)
		explicit = true
	default:
		name = r.schemeName(owner, ownerName, g, path)
	}
	suffix := "Group"
	if g.Kind == xsd.Sequence && particleIsList(particle) {
		suffix = "List"
	}
	if !strings.HasSuffix(name, suffix) {
		name += suffix
	}
	name = r.unique(name)
	r.GroupNames[g] = name
	r.Groups = append(r.Groups, GroupInfo{
		Name: name, Group: g, Particle: particle, Owner: owner, Explicit: explicit,
	})
}

// schemeName picks the generated name per the active scheme.
func (r *Result) schemeName(owner *xsd.ComplexType, ownerName string, g *xsd.ModelGroup, path string) string {
	switch r.Scheme {
	case SchemeSynthesized:
		return r.synthesizedName(g)
	case SchemeInherited:
		return ownerName + path
	default: // SchemePaper: choice inherited, sequence/list synthesized
		if g.Kind == xsd.Choice {
			return ownerName + path
		}
		return r.synthesizedName(g)
	}
}

// synthesizedName joins the member names: singAddrORtwoAddr for choices,
// aANDb for sequences (the paper shows the OR form; AND is the natural
// sequence analogue).
func (r *Result) synthesizedName(g *xsd.ModelGroup) string {
	sep := "AND"
	if g.Kind == xsd.Choice {
		sep = "OR"
	}
	var parts []string
	for _, child := range g.Particles {
		switch {
		case child.Element != nil:
			parts = append(parts, sanitizeIdent(child.Element.Name.Local))
		case child.Group != nil:
			if !child.Group.DefName.IsZero() {
				parts = append(parts, sanitizeIdent(child.Group.DefName.Local))
			} else {
				parts = append(parts, r.synthesizedName(child.Group))
			}
		case child.Wildcard != nil:
			parts = append(parts, "any")
		}
	}
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, sep)
}

// particleIsList reports whether the particle repeats (maxOccurs > 1),
// which the paper calls a list expression.
func particleIsList(p *xsd.Particle) bool {
	return p.Max == xsd.Unbounded || p.Max > 1
}

// claim records a used name.
func (r *Result) claim(name string) { r.used[name] = true }

// unique disambiguates a candidate against already-claimed names.
func (r *Result) unique(name string) string {
	if !r.used[name] {
		r.used[name] = true
		return name
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s%d", name, i)
		if !r.used[cand] {
			r.used[cand] = true
			return cand
		}
	}
}

// GroupName returns the assigned name of a group expression.
func (r *Result) GroupName(g *xsd.ModelGroup) (string, bool) {
	n, ok := r.GroupNames[g]
	return n, ok
}

// TypeName returns the assigned name of a type.
func (r *Result) TypeName(t xsd.Type) (string, bool) {
	n, ok := r.TypeNames[t]
	return n, ok
}

// sanitizeIdent maps an XML name to an identifier-safe string.
func sanitizeIdent(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		case r == '-' || r == '.' || r == '_':
			// Word separators: drop and capitalize the next letter.
			// Handled below via a second pass for simplicity.
			sb.WriteByte('_')
		}
	}
	out := sb.String()
	if out == "" {
		return "X"
	}
	// Convert snake-ish separators to camel case.
	parts := strings.Split(out, "_")
	var b strings.Builder
	for i, p := range parts {
		if p == "" {
			continue
		}
		if i == 0 {
			b.WriteString(p)
		} else {
			b.WriteString(upperFirst(p))
		}
	}
	res := b.String()
	if res == "" {
		return "X"
	}
	if res[0] >= '0' && res[0] <= '9' {
		res = "X" + res
	}
	return res
}

// upperFirst capitalizes the first byte (ASCII names only; non-ASCII
// names keep their case).
func upperFirst(s string) string {
	if s == "" {
		return s
	}
	if s[0] >= 'a' && s[0] <= 'z' {
		return string(s[0]-'a'+'A') + s[1:]
	}
	return s
}

func sortedElementNames(s *xsd.Schema) []xsd.QName {
	var out []xsd.QName
	for q := range s.Elements {
		out = append(out, q)
	}
	sortQNames(out)
	return out
}

func sortedTypeNames(s *xsd.Schema) []xsd.QName {
	var out []xsd.QName
	for q := range s.Types {
		out = append(out, q)
	}
	sortQNames(out)
	return out
}

func sortQNames(qs []xsd.QName) {
	sort.Slice(qs, func(i, j int) bool {
		if qs[i].Space != qs[j].Space {
			return qs[i].Space < qs[j].Space
		}
		return qs[i].Local < qs[j].Local
	})
}
