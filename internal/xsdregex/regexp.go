package xsdregex

import "repro/internal/contentmodel"

// Regexp is a compiled XML Schema regular expression. The zero value is not
// usable; obtain one from Compile or MustCompile. A compiled Regexp is
// safe for concurrent use.
type Regexp struct {
	pattern string
	m       *contentmodel.Pattern
}

// Compile parses a pattern and compiles it onto the content-model
// automaton.
func Compile(pattern string) (*Regexp, error) {
	ast, err := parsePattern(pattern)
	if err != nil {
		return nil, err
	}
	m, err := contentmodel.CompilePattern(lower(ast))
	if err != nil {
		return nil, err
	}
	return &Regexp{pattern: pattern, m: m}, nil
}

// MustCompile is Compile for patterns known to be valid; it panics on
// error.
func MustCompile(pattern string) *Regexp {
	r, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return r
}

// lower turns the AST into the particle tree the automaton is built from:
// a character class is a rune leaf, {n,m} the bounds of its particle.
func lower(n Node) *contentmodel.Particle {
	switch x := n.(type) {
	case Chars:
		runes := make([]contentmodel.RuneRange, len(x.Set.Ranges))
		for i, rg := range x.Set.Ranges {
			runes[i] = contentmodel.RuneRange{Lo: rg.Lo, Hi: rg.Hi}
		}
		return &contentmodel.Particle{Min: 1, Max: 1, Leaf: &contentmodel.Leaf{Runes: runes}}
	case Concat:
		return contentmodel.NewSequence(1, 1, lowerAll(x.Items)...)
	case Alt:
		return contentmodel.NewChoice(1, 1, lowerAll(x.Alts)...)
	case Repeat:
		p := lower(x.Sub)
		if p.Min != 1 || p.Max != 1 {
			p = contentmodel.NewSequence(1, 1, p)
		}
		p.Min, p.Max = x.Min, x.Max
		return p
	default: // Empty
		return contentmodel.NewSequence(1, 1)
	}
}

func lowerAll(ns []Node) []*contentmodel.Particle {
	out := make([]*contentmodel.Particle, len(ns))
	for i, n := range ns {
		out[i] = lower(n)
	}
	return out
}

// String returns the source pattern.
func (r *Regexp) String() string { return r.pattern }

// Match reports whether the pattern matches the entire input (XSD
// patterns are implicitly anchored at both ends). Its error is
// contentmodel.ErrConfigCap, when the run outgrew the automaton's
// configuration cap and the verdict is unknown.
func (r *Regexp) Match(s string) (bool, error) { return r.m.Match(s) }

// MatchString is Match without the error: a run past the configuration
// cap reports false.
func (r *Regexp) MatchString(s string) bool {
	ok, _ := r.m.Match(s)
	return ok
}

// DFAStates returns the number of states the pattern's lazy DFA has
// built so far.
func (r *Regexp) DFAStates() int { return r.m.DFAStates() }
