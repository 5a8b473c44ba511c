// This doc.go is hand-written and survives regeneration; the sibling
// wildgen.go is emitted by cmd/vdomgen (run internal/gen/regen to
// refresh it) from the wildcard envelope schema — the one bundled schema
// whose content model is a lax xsd:any and whose attribute set is open
// via xsd:anyAttribute, so the generator's wildcard bindings are
// compiled, not just emitted.
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
package wildgen
