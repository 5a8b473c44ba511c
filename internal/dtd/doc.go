// Package dtd parses Document Type Definitions (the internal subset) and
// validates DOM documents against them. DTDs are the weaker schema
// language the authors' previous system [14] was built on; the paper's §1
// positions XML Schema as their replacement, and the repository keeps the
// DTD path as the comparison baseline.
//
// # Role in the pipeline
//
// dtd has no scanner or validator of its own. Package xmlparser's
// ParseSubset splits the internal subset into declarations (the decoder
// registers entities from the same scan); dtd reads the content specs and
// attribute lists, lowers the DTD to a no-namespace XML Schema, and
// compiles it with package xsd once per Parse. Validate checks the
// DOCTYPE's root element type and runs the one validation machine
// (package validator) on that schema, so E9 compares two schemas on one
// machine. ANY lowers to a repeated choice of every declared element, not
// a wildcard, because the machine's wildcards are lax.
//
// # Concurrency
//
// A parsed DTD is immutable, so one DTD may validate documents from
// multiple goroutines concurrently. As everywhere in this repository,
// documents must not be mutated during validation.
package dtd
