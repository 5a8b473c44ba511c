// Package compat classifies how one version of a schema relates to
// another, in the sense made standard by schema registries: the *new*
// schema is backward compatible when every document valid under the old
// schema is still valid under the new one (readers built against the new
// schema can consume old data), forward compatible when every document
// valid under the new schema was already valid under the old one (old
// readers can consume new data), and fully compatible when both hold.
//
// The check is semantic, not syntactic. Content models are compared by
// language inclusion over their Glushkov automata
// (contentmodel.Includes), so a rewrite from (a,b)|(a,c) to a,(b|c) is
// recognized as equivalent, while reordering a sequence or tightening
// minOccurs is flagged. Element types are compared recursively with a
// coinductive memo so recursive types terminate. Simple types are
// compared structurally: derivation-chain widening (the new type is an
// ancestor restriction of the old) and enumeration widening (same chain,
// the old value set is a subset of the new) are recognized; any other
// facet change is conservatively reported as incompatible — the
// classifier never claims compatibility it cannot prove, but may reject
// exotic relaxations it cannot see.
package compat

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/contentmodel"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// Level is a compatibility classification, ordered by strength.
type Level int

// Compatibility levels.
const (
	// None: documents exist that each version rejects and the other
	// accepts.
	None Level = iota
	// Forward: old readers accept all new documents, but not vice versa.
	Forward
	// Backward: new readers accept all old documents, but not vice versa.
	Backward
	// Full: the two versions accept the same documents (up to the
	// classifier's precision).
	Full
)

// String names the level the way registry configs spell it.
func (l Level) String() string {
	switch l {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	case Full:
		return "full"
	default:
		return "none"
	}
}

// ParseLevel parses a level name as spelled by String (for flag values).
func ParseLevel(s string) (Level, error) {
	switch s {
	case "none":
		return None, nil
	case "forward":
		return Forward, nil
	case "backward":
		return Backward, nil
	case "full":
		return Full, nil
	}
	return None, fmt.Errorf("compat: unknown level %q (want none, backward, forward or full)", s)
}

// StateBudget bounds each product-automaton inclusion check. Models whose
// product exceeds it are conservatively reported incompatible.
const StateBudget = 1 << 14

// Report is the outcome of classifying new against old.
type Report struct {
	// Level is the strongest classification both break lists support.
	Level Level
	// BackwardBreaks lists the reasons new does not accept every
	// old-valid document (empty when backward compatible).
	BackwardBreaks []string
	// ForwardBreaks lists the reasons old does not accept every
	// new-valid document (empty when forward compatible).
	ForwardBreaks []string
}

// Backward reports whether every old-valid document is new-valid.
func (r *Report) Backward() bool { return len(r.BackwardBreaks) == 0 }

// Forward reports whether every new-valid document is old-valid.
func (r *Report) Forward() bool { return len(r.ForwardBreaks) == 0 }

// Satisfies reports whether the classification meets a required gate
// level: a backward gate needs Backward(), a forward gate Forward(), a
// full gate both; a none gate always passes.
func (r *Report) Satisfies(gate Level) bool {
	switch gate {
	case Backward:
		return r.Backward()
	case Forward:
		return r.Forward()
	case Full:
		return r.Backward() && r.Forward()
	default:
		return true
	}
}

// Classify compares two resolved schemas and reports the compatibility of
// new relative to old.
func Classify(old, new *xsd.Schema) *Report {
	r := &Report{
		BackwardBreaks: accepts(new, old),
		ForwardBreaks:  accepts(old, new),
	}
	switch {
	case r.Backward() && r.Forward():
		r.Level = Full
	case r.Backward():
		r.Level = Backward
	case r.Forward():
		r.Level = Forward
	default:
		r.Level = None
	}
	return r
}

// accepts returns the reasons sup does not accept every document valid
// under sub (empty means it accepts them all).
func accepts(sup, sub *xsd.Schema) []string {
	c := &checker{sup: sup, sub: sub, memo: map[typePair]bool{}}
	var names []xsd.QName
	for q := range sub.Elements {
		names = append(names, q)
	}
	sort.Slice(names, func(i, j int) bool {
		if names[i].Space != names[j].Space {
			return names[i].Space < names[j].Space
		}
		return names[i].Local < names[j].Local
	})
	for _, q := range names {
		decl := sub.Elements[q]
		if decl.Abstract {
			// Abstract heads never appear in instances; their members
			// are globals checked in their own right.
			continue
		}
		supDecl, ok := sup.Elements[q]
		if !ok {
			c.breakf("global element %s is no longer declared", q)
			continue
		}
		c.checkDecl(supDecl, decl, "element "+q.String())
	}
	return c.breaks
}

type typePair struct{ sup, sub xsd.Type }

type checker struct {
	sup, sub *xsd.Schema
	memo     map[typePair]bool
	breaks   []string
}

func (c *checker) breakf(format string, args ...any) {
	c.breaks = append(c.breaks, fmt.Sprintf(format, args...))
}

// checkDecl compares two element declarations sharing a name: value
// constraints, nillability and then the types.
func (c *checker) checkDecl(sup, sub *xsd.ElementDecl, path string) {
	if sub.Nillable && !sup.Nillable {
		c.breakf("%s: nillable was revoked", path)
	}
	if sup.Fixed != nil && (sub.Fixed == nil || *sub.Fixed != *sup.Fixed) {
		c.breakf("%s: fixed value %q was added or changed", path, *sup.Fixed)
	}
	c.typeAccepts(sup.Type, sub.Type, path)
}

// typeAccepts reports (and records breaks) whether sup accepts every
// element content valid under sub. Recursive types are handled
// coinductively: a pair under evaluation is presumed compatible, so the
// recursion bottoms out and the check computes a greatest fixpoint.
func (c *checker) typeAccepts(sup, sub xsd.Type, path string) bool {
	if sup == nil || sub == nil {
		return sup == sub
	}
	if sup == sub {
		return true
	}
	k := typePair{sup, sub}
	if v, ok := c.memo[k]; ok {
		return v
	}
	c.memo[k] = true // coinductive seed for recursive types
	before := len(c.breaks)
	ok := c.typeAccepts1(sup, sub, path)
	if ok {
		// Suppress breaks recorded by speculative sub-checks that an
		// alternative rule later satisfied (e.g. union member search).
		c.breaks = c.breaks[:before]
	}
	c.memo[k] = ok
	return ok
}

func (c *checker) typeAccepts1(sup, sub xsd.Type, path string) bool {
	switch supT := sup.(type) {
	case *xsd.SimpleType:
		if subT, isSimple := sub.(*xsd.SimpleType); isSimple {
			if !simpleAccepts(supT, subT) {
				c.breakf("%s: simple type narrowed (%s does not cover %s)", path, typeName(sup), typeName(sub))
				return false
			}
			return true
		}
		// Old complex, new simple: old documents may carry attributes or
		// children a simple type cannot.
		c.breakf("%s: type changed from complex to simple", path)
		return false
	case *xsd.ComplexType:
		if subT, isComplex := sub.(*xsd.ComplexType); isComplex {
			return c.complexAccepts(supT, subT, path)
		}
		// Old simple, new complex: acceptable only for simple content
		// with no newly required attributes.
		if supT.Kind != xsd.ContentSimple {
			c.breakf("%s: type changed from simple to structured complex content", path)
			return false
		}
		for _, u := range supT.AttributeUses {
			if u.Required && !u.Prohibited {
				c.breakf("%s: required attribute %s added to previously simple-typed element", path, u.Decl.Name)
				return false
			}
		}
		if !simpleAccepts(supT.SimpleContentType, sub.(*xsd.SimpleType)) {
			c.breakf("%s: simple content narrowed (%s does not cover %s)", path, typeName(sup), typeName(sub))
			return false
		}
		return true
	}
	return false
}

// complexAccepts compares content kind, content model language,
// attributes and then recurses into shared child element declarations.
func (c *checker) complexAccepts(sup, sub *xsd.ComplexType, path string) bool {
	ok := true
	switch sub.Kind {
	case xsd.ContentSimple:
		if sup.Kind != xsd.ContentSimple {
			c.breakf("%s: simple content replaced by %s", path, kindName(sup.Kind))
			return false
		}
		if !simpleAccepts(sup.SimpleContentType, sub.SimpleContentType) {
			c.breakf("%s: simple content narrowed (%s does not cover %s)",
				path, simpleName(sup.SimpleContentType), simpleName(sub.SimpleContentType))
			ok = false
		}
	case xsd.ContentMixed:
		if sup.Kind != xsd.ContentMixed {
			c.breakf("%s: mixed content no longer allowed", path)
			return false
		}
		ok = c.particleAccepts(sup, sub, path) && ok
	default: // element-only or empty
		switch sup.Kind {
		case xsd.ContentSimple:
			// An empty element (no text) is valid under simple content
			// only when the simple type accepts the empty string.
			if sub.Kind == xsd.ContentEmpty && sup.SimpleContentType != nil &&
				sup.SimpleContentType.Validate("") == nil {
				break
			}
			c.breakf("%s: element content replaced by simple content", path)
			return false
		default:
			ok = c.particleAccepts(sup, sub, path) && ok
		}
	}
	ok = c.attributesAccept(sup, sub, path) && ok
	return ok
}

// particleAccepts runs the language-inclusion check on the two content
// models and recurses into element declarations both sides share.
func (c *checker) particleAccepts(sup, sub *xsd.ComplexType, path string) bool {
	gSup, okSup := sup.Matcher(c.sup).(*contentmodel.Glushkov)
	gSub, okSub := sub.Matcher(c.sub).(*contentmodel.Glushkov)
	ok := true
	switch {
	case !okSup || !okSub:
		c.breakf("%s: content model too large to compare", path)
		ok = false
	default:
		incl, err := contentmodel.Includes(gSup, gSub, StateBudget)
		switch {
		case errors.Is(err, contentmodel.ErrInclusionBudget):
			c.breakf("%s: content-model inclusion check exceeded its state budget", path)
			ok = false
		case err != nil:
			c.breakf("%s: content-model comparison failed: %v", path, err)
			ok = false
		case !incl:
			c.breakf("%s: content model no longer accepts all previously valid child sequences", path)
			ok = false
		}
	}
	supDecls := map[xsd.QName]*xsd.ElementDecl{}
	collectDecls(sup.Particle, supDecls)
	subDecls := map[xsd.QName]*xsd.ElementDecl{}
	collectDecls(sub.Particle, subDecls)
	var names []xsd.QName
	for q := range subDecls {
		if _, shared := supDecls[q]; shared {
			names = append(names, q)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if names[i].Space != names[j].Space {
			return names[i].Space < names[j].Space
		}
		return names[i].Local < names[j].Local
	})
	for _, q := range names {
		before := len(c.breaks)
		c.checkDecl(supDecls[q], subDecls[q], path+"/"+q.Local)
		if len(c.breaks) > before {
			ok = false
		}
	}
	return ok
}

// collectDecls gathers element declarations reachable in a particle tree,
// first declaration wins per name (XSD's element-declarations-consistent
// rule makes duplicates agree on type anyway).
func collectDecls(p *xsd.Particle, out map[xsd.QName]*xsd.ElementDecl) {
	if p == nil {
		return
	}
	if p.Element != nil {
		if _, ok := out[p.Element.Name]; !ok {
			out[p.Element.Name] = p.Element
		}
	}
	if p.Group != nil {
		for _, ch := range p.Group.Particles {
			collectDecls(ch, out)
		}
	}
}

// attributesAccept checks that sup admits every attribute set sub admits:
// no attribute removed or newly required, no value space narrowed, no
// fixed value introduced.
func (c *checker) attributesAccept(sup, sub *xsd.ComplexType, path string) bool {
	ok := true
	for _, subUse := range sub.AttributeUses {
		if subUse.Prohibited {
			continue
		}
		name := subUse.Decl.Name
		supUse := sup.FindAttributeUse(name)
		if supUse == nil || supUse.Prohibited {
			if sup.AttrWildcard != nil && sup.AttrWildcard.Admits(name.Space) {
				continue
			}
			c.breakf("%s: attribute %s is no longer allowed", path, name)
			ok = false
			continue
		}
		if !simpleAccepts(supUse.Decl.Type, subUse.Decl.Type) {
			c.breakf("%s: attribute %s type narrowed (%s does not cover %s)",
				path, name, simpleName(supUse.Decl.Type), simpleName(subUse.Decl.Type))
			ok = false
		}
		if supUse.Fixed != nil && (subUse.Fixed == nil || *subUse.Fixed != *supUse.Fixed) {
			c.breakf("%s: attribute %s acquired fixed value %q", path, name, *supUse.Fixed)
			ok = false
		}
	}
	for _, supUse := range sup.AttributeUses {
		if !supUse.Required || supUse.Prohibited {
			continue
		}
		name := supUse.Decl.Name
		subUse := findUse(sub, name)
		if subUse == nil || !subUse.Required || subUse.Prohibited {
			c.breakf("%s: attribute %s is newly required", path, name)
			ok = false
		}
	}
	return ok
}

func findUse(ct *xsd.ComplexType, name xsd.QName) *xsd.AttributeUse {
	u := ct.FindAttributeUse(name)
	if u != nil && u.Prohibited {
		return nil
	}
	return u
}

// simpleAccepts reports whether every value valid under sub is valid
// under sup. The check is structural and conservative: it recognizes
// identity, derivation widening (sub restricts sup, directly or by an
// equal chain with extra steps) and enumeration widening; unions are
// covered member-wise. Anything it cannot prove it rejects.
func simpleAccepts(sup, sub *xsd.SimpleType) bool {
	if sup == sub {
		return true
	}
	if sup == nil || sub == nil {
		return false
	}
	// Restriction steps that add no facets do not change the value
	// space; skip them so dropping every facet of a step reads as
	// widening to its base.
	sup, sub = stripEmptySteps(sup), stripEmptySteps(sub)
	// Same-schema pointer chains and built-in derivation.
	if sub.DerivesFrom(sup) {
		return true
	}
	// Cross-schema: sup structurally equals sub or one of sub's ancestor
	// restrictions (sub only adds constraining steps on top of sup).
	for t := sub; t != nil; t = t.Base {
		if simpleEqual(sup, t, false) {
			return true
		}
	}
	// Enumeration widening: identical chains apart from enumeration
	// facets, with sub's effective value set contained in sup's (a
	// missing set on sup means unconstrained).
	if simpleEqual(sup, sub, true) {
		supE, subE := enumSet(sup), enumSet(sub)
		if supE == nil {
			return true
		}
		if subE == nil {
			return false
		}
		for v := range subE {
			if !supE[v] {
				return false
			}
		}
		return true
	}
	// A union on the new side covers the old type when some member does.
	if sup.Variety == xsd.VarietyUnion && len(sup.Facets.Enumeration) == 0 && len(sup.Facets.Patterns) == 0 {
		for _, m := range sup.MemberTypes {
			if simpleAccepts(m, sub) {
				return true
			}
		}
	}
	// A union on the old side is covered when every member is.
	if sub.Variety == xsd.VarietyUnion {
		for _, m := range sub.MemberTypes {
			if !simpleAccepts(sup, m) {
				return false
			}
		}
		return len(sub.MemberTypes) > 0
	}
	return false
}

// simpleEqual compares two simple-type definitions structurally,
// optionally ignoring enumeration facets.
func simpleEqual(a, b *xsd.SimpleType, ignoreEnum bool) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Builtin != nil || b.Builtin != nil {
		return a.Builtin == b.Builtin
	}
	if a.Variety != b.Variety || !facetsEqual(&a.Facets, &b.Facets, ignoreEnum) {
		return false
	}
	switch a.Variety {
	case xsd.VarietyList:
		return simpleEqual(a.ItemType, b.ItemType, ignoreEnum) && simpleEqual(a.Base, b.Base, ignoreEnum)
	case xsd.VarietyUnion:
		if len(a.MemberTypes) != len(b.MemberTypes) {
			return false
		}
		for i := range a.MemberTypes {
			if !simpleEqual(a.MemberTypes[i], b.MemberTypes[i], ignoreEnum) {
				return false
			}
		}
		return simpleEqual(a.Base, b.Base, ignoreEnum)
	default:
		return simpleEqual(a.Base, b.Base, ignoreEnum)
	}
}

func facetsEqual(a, b *xsdtypes.Facets, ignoreEnum bool) bool {
	if !intEq(a.Length, b.Length) || !intEq(a.MinLength, b.MinLength) || !intEq(a.MaxLength, b.MaxLength) ||
		!intEq(a.TotalDigits, b.TotalDigits) || !intEq(a.FractionDigits, b.FractionDigits) {
		return false
	}
	if len(a.Patterns) != len(b.Patterns) {
		return false
	}
	for i := range a.Patterns {
		if a.Patterns[i].String() != b.Patterns[i].String() {
			return false
		}
	}
	if !ignoreEnum {
		if len(a.Enumeration) != len(b.Enumeration) {
			return false
		}
		seen := map[string]bool{}
		for _, v := range a.Enumeration {
			seen[v.String()] = true
		}
		for _, v := range b.Enumeration {
			if !seen[v.String()] {
				return false
			}
		}
	}
	if !valEq(a.MinInclusive, b.MinInclusive) || !valEq(a.MaxInclusive, b.MaxInclusive) ||
		!valEq(a.MinExclusive, b.MinExclusive) || !valEq(a.MaxExclusive, b.MaxExclusive) {
		return false
	}
	if (a.WhiteSpace == nil) != (b.WhiteSpace == nil) {
		return false
	}
	return a.WhiteSpace == nil || *a.WhiteSpace == *b.WhiteSpace
}

func intEq(a, b *int) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

func valEq(a, b *xsdtypes.Value) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.String() == b.String()
}

// stripEmptySteps removes leading atomic restriction steps that declare
// no facets: they are value-space-identical to their base.
func stripEmptySteps(t *xsd.SimpleType) *xsd.SimpleType {
	for t != nil && t.Builtin == nil && t.Variety == xsd.VarietyAtomic &&
		t.Base != nil && t.Facets.IsEmpty() {
		t = t.Base
	}
	return t
}

// enumSet returns the effective enumeration value set of a chain (the
// intersection of its enumeration steps), nil when unconstrained.
func enumSet(t *xsd.SimpleType) map[string]bool {
	var set map[string]bool
	for s := t; s != nil && s.Builtin == nil; s = s.Base {
		if len(s.Facets.Enumeration) == 0 {
			continue
		}
		step := map[string]bool{}
		for _, v := range s.Facets.Enumeration {
			step[v.String()] = true
		}
		if set == nil {
			set = step
			continue
		}
		for k := range set {
			if !step[k] {
				delete(set, k)
			}
		}
	}
	return set
}

func typeName(t xsd.Type) string {
	if t == nil {
		return "<nil>"
	}
	if q := t.TypeName(); !q.IsZero() {
		return q.String()
	}
	return "anonymous type"
}

func simpleName(t *xsd.SimpleType) string {
	if t == nil {
		return "<nil>"
	}
	return typeName(t)
}

func kindName(k xsd.ContentKind) string {
	switch k {
	case xsd.ContentSimple:
		return "simple content"
	case xsd.ContentMixed:
		return "mixed content"
	case xsd.ContentElementOnly:
		return "element-only content"
	default:
		return "empty content"
	}
}
