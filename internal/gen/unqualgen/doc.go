// This doc.go is hand-written and survives regeneration; the sibling
// unqualgen.go is emitted by cmd/vdomgen (run internal/gen/regen to
// refresh it) from the unqualified-locals order schema: a target
// namespace whose local elements are in no namespace, so the written
// bytes must undeclare the default namespace on them.
//
// # Role in the pipeline
//
// The package is a checked-in output of the codegen stage (xsd parse →
// normalize → contentmodel → codegen/vdom → validator → pxml), kept in
// sync with the generator by codegen.TestGoldenGeneratedPackages.
//
// # Concurrency
//
// As with all V-DOM bindings, build and marshal each typed tree from a
// single goroutine; the underlying schema and compiled content models
// are safe to share (see package vdom).
package unqualgen
