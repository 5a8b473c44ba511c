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
// Generated packages carry bindings only. Validation, decoding and
// encoding of their documents go through the interpreted validator and
// binder over the package's runtime schema (validator.New(RT.Schema, nil),
// bind.New(RT.Schema, nil)).
//
// # Concurrency
//
// Generation is a pure traversal of an immutable normalized schema into
// a fresh buffer: no package-level state is written, so distinct
// Generate calls — even over the same schema — may run concurrently.
// Generation is build-time work; nothing here runs on the serving path.
package codegen
