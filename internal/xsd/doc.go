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
// # One table of built-in types
//
// The built-in simple types are built once, at package init, into one
// immutable table that every schema shares: xs:string of one schema is
// the same *SimpleType as xs:string of any other. Schema.Types holds only
// the global types the schema declares. LookupType, SimpleTypeOf and the
// parser resolve the XSD namespace from the table first, so walking Types
// needs no filter. xs:anyType stays per schema (Schema.AnyType): its
// compiled content model numbers element names with the schema's own
// interner.
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
// one once-guarded step: the Glushkov automaton, with counters and
// all-group member sets in place of copies, so every model of any size
// gets it, and the Unique Particle Attribution check run on that same
// automaton. Parse runs the step for
// every type through CheckAllUPA (unless SkipUPACheck), so the automata
// it checks are the ones kept. The first Matcher call attaches the lazy
// DFA to a UPA-clean automaton. Every consumer — the validator, bind,
// vdom, pxml and the compat inclusion check — reads that one model; none
// compiles its own.
//
// Identity-constraint selectors and fields are parsed once here too
// (xpath.go), so a malformed path fails Parse and names its constraint.
//
// # Simple values at the cost their type needs
//
// A restriction is "inheritance plus dynamic value checks" (the paper's
// §3): a derived type's check is its base's plus its own facets. When a
// type is built (resolveChain), its whitespace rule and nearest built-in
// are resolved and its chain is folded into an xsdtypes.Plan: its base's
// plan with the type's own facets folded in, one check per facet kind
// (the tightest bounds, lengths and digits, the enumerations'
// intersection, one pattern group per step). A built-in's plan is the
// one xsdtypes folded at init, shared by every schema. Folding a step
// costs O(its facets), so folding an n-level chain, and parsing each
// step's bounds in its base, cost O(n).
//
// SimpleType.Parse normalizes whitespace once, by the type's rule, and
// checks a valid value against the plan in one pass, however deep the
// chain; list items and union members use their own plans. A value the
// plan rejects is walked along the chain for its error: parsed once at
// the bottom (the nearest built-in's primitive, the list items or the
// union members), then each restriction step checked once, root-most
// first, following the Base links. Normalizing once is exact because
// Parse rejects a whiteSpace facet looser than its base's (Part 2
// §4.3.6.4). Parse also rejects facets of one step that contradict each
// other (min above max, length beside minLength, and so on). A failing
// step of an atomic chain is blamed on its own name, one of a list or
// union chain on the outermost type. A type whose facets cannot fold
// exactly (bounds over durations, lists or unions, among others; see
// xsdtypes.Plan.Fold) has no plan, and its values always take the walk.
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
