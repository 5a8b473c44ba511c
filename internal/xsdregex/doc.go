// Package xsdregex implements the regular-expression dialect of XML Schema
// Part 2 (Appendix F), used by the pattern facet — e.g. the paper's SKU
// pattern `\d{3}-[A-Z]{2}`.
//
// The package is a parser, character sets, and a lowering step. A pattern
// is parsed into an AST, and Compile lowers the AST onto the content-model
// automaton of package contentmodel: a character class becomes a rune
// leaf, a group a sequence or choice, and a bound {n,m} the bounds of its
// particle, which the automaton keeps as a counter rather than n to m
// copies. That automaton is the Aho–Sethi–Ullman position construction
// the paper's §6 cites for its preprocessor generator, so patterns and
// content models share one engine: a bound holds at any size, and a value
// is matched by the automaton's lazy DFA, whose alphabet classes are the
// runes admitted by the same leaves. A value whose run outgrows the
// automaton's configuration cap has no verdict: Match reports
// contentmodel.ErrConfigCap, and the facet check says so.
//
// XML Schema regular expressions are always anchored: the pattern must
// match the entire lexical value. There are no anchors, backreferences or
// non-greedy operators in the dialect.
//
// # Role in the pipeline
//
// xsdregex backs the pattern facet everywhere simple-type values are
// checked: the schema parser (package xsd) compiles each xs:pattern once
// at parse time, and the facet checker (package xsdtypes) runs the
// compiled automata on the validator's and vdom runtime's hot paths.
//
// # Concurrency
//
// A compiled Regexp is safe for concurrent use: the lazy DFA fills its
// transition table under a mutex and publishes each edge atomically, and
// a match past its state budget keeps its configuration sets on its own
// stack.
package xsdregex
