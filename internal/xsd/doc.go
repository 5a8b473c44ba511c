// Package xsd parses XML Schema documents (the xsd:schema vocabulary of
// the 2001 recommendation) into a resolved component model: element
// declarations, simple and complex type definitions, model groups,
// attribute declarations and uses, wildcards, and the derivation
// relations (extension, restriction, substitution groups, abstractness)
// that §3 of the paper maps onto V-DOM interface inheritance.
//
// # Multi-document schema sets
//
// A schema may be spread over several documents: ParseFile follows
// xs:include, xs:import and xs:redefine through a Resolver, with
// DirResolver confining schemaLocation resolution to one directory root
// (relative to the referring file; URLs and root-escaping paths are
// rejected, so untrusted trees load without touching the network).
// Loading is cycle-safe, include is chameleon-aware, import enforces
// namespace coherence, and redefine applies replacement semantics. The
// compiled Schema records the full document list (Sources, root first),
// which the registry uses as the entry's invalidation closure.
//
// # Role in the pipeline
//
// xsd is the head of the pipeline (xsd parse → normalize → contentmodel →
// codegen/vdom → validator → pxml): everything downstream — the §3
// normal form (package normalize), the binding generator (package
// codegen), the runtime validator and the P-XML preprocessor — consumes
// the Schema component model built here. Content models are lowered to
// package contentmodel particles via CompileParticle.
//
// # One compiled content model per complex type
//
// Each ComplexType owns its compiled content model (compile.go), built in
// one once-guarded step: the Glushkov automaton, or the backtracking
// interpreter past the position budget, with the Unique Particle
// Attribution check run on that same automaton. Parse runs the step for
// every type through CheckAllUPA (unless SkipUPACheck), so the automata
// it checks are the ones kept. The first Matcher call attaches the lazy
// DFA to a UPA-clean automaton. Every consumer — the validator, bind,
// vdom, pxml and the compat inclusion check — reads that one model; none
// compiles its own.
//
// Identity-constraint selectors and fields are parsed once here too
// (xpath.go), so a malformed path fails Parse and names its constraint.
//
// # Concurrency
//
// A Schema is immutable once Parse/ParseString returns, and all lookup
// methods are read-only, so one Schema may back any number of concurrent
// validators, generators and preprocessors. A ComplexType's compiled
// model and its DFA attachment are built under sync.Once, so concurrent
// first calls to Matcher and CheckUPA are safe and the work happens
// exactly once per type. Parsing itself is single-goroutine per call;
// distinct schemas may be parsed concurrently.
package xsd
