package xsdregex

import (
	"errors"
	"sync"
)

// Regexp is a compiled XML Schema regular expression. The zero value is not
// usable; obtain one from Compile or MustCompile. A compiled Regexp is
// safe for concurrent use: matching allocates per-call scratch only, and
// the DFA is built once under a sync.Once.
type Regexp struct {
	pattern string
	ast     Node
	nfa     *nfa
	dfaOnce sync.Once
	dfa     *DFA // nil when the pattern is too complex for the DFA
}

// Compile parses and compiles a pattern.
func Compile(pattern string) (*Regexp, error) {
	ast, err := parsePattern(pattern)
	if err != nil {
		return nil, err
	}
	return &Regexp{pattern: pattern, ast: ast, nfa: compileNFA(ast)}, nil
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

// String returns the source pattern.
func (r *Regexp) String() string { return r.pattern }

// MatchString reports whether the pattern matches the entire input (XSD
// patterns are implicitly anchored at both ends). It runs the DFA, built on
// first use, and simulates the NFA only for patterns too complex for one.
func (r *Regexp) MatchString(s string) bool {
	if d, _ := r.ToDFA(); d != nil {
		return d.Match(s)
	}
	return r.nfa.match(s)
}

// ErrTooComplex is returned by ToDFA when building the deterministic
// automaton would exceed its state or work limit.
var ErrTooComplex = errors.New("xsdregex: pattern too complex for DFA construction")

// ToDFA builds (or returns the cached) deterministic automaton using the
// Aho–Sethi–Ullman followpos construction. The build runs at most once
// per Regexp; concurrent callers share the result.
func (r *Regexp) ToDFA() (*DFA, error) {
	r.dfaOnce.Do(func() {
		if d := compileDFA(r.ast); !d.incomplete {
			r.dfa = d
		}
	})
	if r.dfa == nil {
		return nil, ErrTooComplex
	}
	return r.dfa, nil
}

// MatchNFA matches by NFA simulation: the reference engine FuzzDFA and the
// E4 benchmarks compare the DFA against.
func (r *Regexp) MatchNFA(s string) bool { return r.nfa.match(s) }
