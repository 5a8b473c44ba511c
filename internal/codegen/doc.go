// Package codegen generates Go V-DOM bindings from an XML Schema: one
// distinct Go type per element declaration, type definition and model
// group (paper §3), with constructors that make structurally invalid
// trees unrepresentable. It can also emit the paper's IDL notation
// (Fig. 5/6) for the golden figure tests.
//
// # Role in the pipeline
//
// codegen is the static half's back end (xsd parse → normalize →
// contentmodel → codegen/vdom → validator → pxml): it consumes a
// normalized schema (package normalize decides every generated name) and
// emits Go source against the package vdom runtime. The name assignment
// implemented here is shared with the P-XML preprocessor (package pxml),
// which must emit calls that compile against the generated bindings; the
// checked-in outputs live under internal/gen (manifest in
// internal/gen/manifest, regenerated by internal/gen/regen) and are
// golden-tested.
//
// # The validator back end
//
// GenerateValidator (valgen.go, valgen_model.go, valgen_emit.go) is the
// second back end: it compiles the schema itself into a companion Go
// file for the same package. Each content model's exported DFA
// (contentmodel.ExportDFA) becomes switch statements over interned
// symbols, each simple-type chain becomes a straight-line parse/facet
// function replaying xsd.SimpleType.Parse exactly, and Decode
// specializes the generic bind walk (JSON and Marshal call the binder).
// Cold paths —
// xsi:type, identity constraints, DFA-refused models, corpus-pruned
// declarations (Options.Corpus) — delegate to the interpreted run
// through validator.Sink, so generated and interpreted verdicts are
// byte-identical; the repository's differential layer
// (TestGeneratedMatchesInterpreted, FuzzGeneratedValidator) enforces
// that rather than assuming it.
//
// # Concurrency
//
// Generation is a pure traversal of an immutable normalized schema into
// a fresh buffer: no package-level state is written, so distinct
// Generate/GenerateValidator calls — even over the same schema — may run
// concurrently. Generation is build-time work; nothing here runs on the
// serving path.
package codegen
