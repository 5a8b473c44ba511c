// Package xsdregex implements the regular-expression dialect of XML Schema
// Part 2 (Appendix F), used by the pattern facet — e.g. the paper's SKU
// pattern `\d{3}-[A-Z]{2}`.
//
// Patterns are parsed into an AST and compiled to a Thompson NFA. On
// first use MatchString builds a deterministic automaton with the
// Aho–Sethi–Ullman followpos construction — the algorithm the paper's §6
// cites for its preprocessor generator — and runs it from then on. Only a
// pattern whose DFA construction would exceed its state or work cap
// (ErrTooComplex) is matched by NFA simulation (linear time, no state
// blowup); the work cap bounds that first call to tens of milliseconds. MatchNFA always
// simulates the NFA: it is the reference FuzzDFA and the E4 benchmarks
// compare the DFA against.
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
// A compiled Regexp is safe for concurrent use: NFA simulation keeps its
// scratch bitsets on the call stack, the DFA is a read-only table walk,
// and the DFA is built under a sync.Once, so racing first MatchString
// calls wait for one build and never see a partial one.
package xsdregex
