package xsdtypes

import (
	"math"

	"repro/internal/xsdregex"
)

// Plan is a simple type's derivation chain folded into one check per
// facet kind (DESIGN.md, "Simple values at the cost their type needs").
// Every step of a chain must hold, so the chain's bounds, lengths and
// digit counts fold to the tightest of each, in one Facets value that
// Facets.Check checks, and its enumerations to their intersection, kept
// as a keyed set; patterns stay one group per step. The set is the
// plan's, not the Facets', since every schema embeds a Facets in each of
// its built-in types. A plan only decides that a value is valid: a
// value it rejects goes through the root-most walk (ParseNormalized and
// the steps above it), which formats the error.
//
// Each built-in has one plan, folded at package init; a user type's plan
// is its base's with the type's own facets folded in, which costs
// O(facets of the step), however deep the chain. A Plan is immutable.
type Plan struct {
	// prim parses the lexical form: the nearest built-in of an atomic
	// chain. It is nil for list and union types, whose values their
	// items or members parse.
	prim *Builtin
	// bare marks a plan with nothing to check beyond the parse.
	bare bool
	// checks are the chain's built-in lexical checks.
	checks []func(string) error
	// facets are the chain's facets folded, patterns and enumerations
	// left out: at most one lower and one upper bound, Length folded into
	// MinLength and MaxLength.
	facets Facets
	// enum is the intersection of the chain's enumerations, keyed; nil
	// when no step enumerates.
	enum *enumSet
	// patterns holds one group per step that has patterns, outermost
	// first: a value matches one pattern of every group.
	patterns *patternGroup
}

// patternGroup is one step's patterns, ORed.
type patternGroup struct {
	res  []*xsdregex.Regexp
	next *patternGroup
}

// enumSet is an enumeration's admitted values. Strings, booleans and
// decimals of one kind, whose Equal is equality of a canonical string
// (the string itself, the truth value, the normalized digits and the
// sign), are keyed by that string; other values are scanned with Equal.
type enumSet struct {
	kind     ValueKind           // the kind of the keyed values
	pos, neg map[string]struct{} // keys, of negative decimals in neg
	scan     []Value
}

// keyable reports whether values of kind k are keyed.
func keyable(k ValueKind) bool {
	switch k {
	case VString, VAnyURI, VQName, VNotation, VBool, VDecimal:
		return true
	}
	return false
}

// keys returns the map v's key belongs in, and the key.
func (e *enumSet) keys(v *Value) (map[string]struct{}, string) {
	switch {
	case v.Kind == VBool && v.w0 != 0:
		return e.pos, "1"
	case v.Kind == VBool:
		return e.pos, "0"
	case v.bits&decimalNeg != 0 && v.Kind == VDecimal:
		return e.neg, v.Str
	}
	return e.pos, v.Str
}

func (e *enumSet) has(v *Value) bool {
	if v.Kind == e.kind && keyable(v.Kind) {
		m, k := e.keys(v)
		_, in := m[k]
		return in
	}
	for i := range e.scan {
		if v.Equal(e.scan[i]) {
			return true
		}
	}
	return false
}

func (e *enumSet) empty() bool { return len(e.pos)+len(e.neg)+len(e.scan) == 0 }

// add adds v. The first keyable value fixes the kind keyed; keyable
// values of another kind, which a union's enumeration may hold, are
// scanned.
func (e *enumSet) add(v Value) {
	if !keyable(v.Kind) || len(e.pos)+len(e.neg) > 0 && v.Kind != e.kind {
		e.scan = append(e.scan, v)
		return
	}
	e.kind = v.Kind
	m, k := e.keys(&v)
	m[k] = struct{}{}
}

// ValuesPlan is the plan of a list or union type with no facets: its
// values arrive parsed, and nothing is checked.
var ValuesPlan = &Plan{bare: true}

// Plan returns b's folded plan.
func (b *Builtin) Plan() *Plan { return b.plan }

// foldBuiltin returns the plan of b, whose base's plan is base (nil for
// the root).
func foldBuiltin(base *Plan, b *Builtin) *Plan {
	if base == nil {
		base = ValuesPlan
	}
	p := *base
	p.prim = b
	if b.Check != nil {
		p.checks = append(p.checks[:len(p.checks):len(p.checks)], b.Check)
	}
	return p.fold(&b.Facets)
}

// Fold returns the plan of a restriction of p's type by the facets f. It
// returns nil, meaning the type has no plan and its values always take
// the walk, when f cannot fold exactly: a bound on a type whose order is
// partial, approximate or absent (a list, a union, durations, the
// unordered kinds), or enumerations whose intersection is empty. The
// restrictions of a type with no plan have none either.
func (p *Plan) Fold(f *Facets) *Plan {
	if p == nil || f.IsEmpty() {
		return p
	}
	q := *p
	return q.fold(f)
}

// fold folds f into p in place and returns p, or nil (see Fold).
func (p *Plan) fold(f *Facets) *Plan {
	c := &p.facets
	if f.Length != nil {
		c.MinLength, c.MaxLength = most(c.MinLength, *f.Length), least(c.MaxLength, *f.Length)
	}
	if f.MinLength != nil {
		c.MinLength = most(c.MinLength, *f.MinLength)
	}
	if f.MaxLength != nil {
		c.MaxLength = least(c.MaxLength, *f.MaxLength)
	}
	if f.TotalDigits != nil {
		c.TotalDigits = least(c.TotalDigits, *f.TotalDigits)
	}
	if f.FractionDigits != nil {
		c.FractionDigits = least(c.FractionDigits, *f.FractionDigits)
	}
	if len(f.Patterns) > 0 {
		p.patterns = &patternGroup{res: f.Patterns, next: p.patterns}
	}
	if len(f.Enumeration) > 0 {
		e := &enumSet{pos: map[string]struct{}{}, neg: map[string]struct{}{}}
		for _, v := range f.Enumeration {
			if p.enum == nil || p.enum.has(&v) {
				e.add(v)
			}
		}
		if e.empty() {
			return nil
		}
		p.enum = e
	}
	for _, b := range []struct {
		v         *Value
		low, excl bool
	}{{f.MinInclusive, true, false}, {f.MinExclusive, true, true}, {f.MaxInclusive, false, false}, {f.MaxExclusive, false, true}} {
		if b.v == nil {
			continue
		}
		if p.prim == nil || !totalOrder(p.prim.Kind) || b.v.Kind == VFloat && math.IsNaN(b.v.Float()) {
			return nil // NaN compares with nothing
		}
		if b.low {
			tighten(&c.MinInclusive, &c.MinExclusive, b.v, b.excl, 1)
		} else {
			tighten(&c.MaxInclusive, &c.MaxExclusive, b.v, b.excl, -1)
		}
	}
	p.bare = len(p.checks) == 0 && p.patterns == nil && p.enum == nil && c.IsEmpty()
	return p
}

// least returns the lesser of the limit cur, which may be unset, and n;
// most the greater.
func least(cur *int, n int) *int {
	if cur != nil && *cur <= n {
		return cur
	}
	return &n
}

func most(cur *int, n int) *int {
	if cur != nil && *cur >= n {
		return cur
	}
	return &n
}

// totalOrder reports whether Compare totally preorders values of kind k.
// Durations are left out: months and seconds compare by an approximation
// only when the months differ, which is not transitive.
func totalOrder(k ValueKind) bool {
	return k == VDecimal || k == VFloat || k == VDateTime || k == VString
}

// tighten folds the bound v, exclusive when excl, into the pair of bounds
// *incl and *exclusive, of which at most one is set, keeping the tighter
// in direction dir: 1 for lower bounds (the greater wins), -1 for upper
// ones. At equal values the exclusive bound wins; between equal
// inclusive ones, the one already set.
func tighten(incl, exclusive **Value, v *Value, excl bool, dir int) {
	cur, curExcl := *incl, false
	if *exclusive != nil {
		cur, curExcl = *exclusive, true
	}
	if cur != nil {
		if c, _ := compare(v, cur); c*dir < 0 || c == 0 && (curExcl || !excl) {
			return
		}
	}
	*incl, *exclusive = nil, nil
	if excl {
		*exclusive = v
	} else {
		*incl = v
	}
}

// ParseTo parses the whitespace-normalized norm in p's type into *v and
// reports whether it is valid; the value is that of the walk, and *v is
// unspecified when norm is not valid. p must be an atomic type's plan or
// nil, which decides nothing.
//
// The value is written through v rather than returned: a Value is moved
// through memory, so returning it up each call of this path would copy it
// whole from narrower stores than the copy reads, which stalls the CPU's
// store forwarding.
func (p *Plan) ParseTo(v *Value, norm string) bool {
	if p == nil || p.prim.parseInto(v, norm) != nil {
		return false
	}
	if p.bare {
		return true
	}
	for _, c := range p.checks {
		if c(norm) != nil {
			return false
		}
	}
	return p.Check(v, norm)
}

// Check reports whether v, parsed from the normalized norm by p's
// primitive or by a list's items or a union's members, passes p's
// facets and patterns.
func (p *Plan) Check(v *Value, norm string) bool {
	if p.bare {
		return true
	}
	for g := p.patterns; g != nil; g = g.next {
		if !g.matches(norm) {
			return false
		}
	}
	if p.enum != nil && !p.enum.has(v) {
		return false
	}
	return p.facets.check(v, norm) == nil
}

func (g *patternGroup) matches(s string) bool {
	for _, re := range g.res {
		if m, _ := re.Match(s); m {
			return true
		}
	}
	return false
}
