// Package vdom is the runtime support library for V-DOM, the paper's core
// contribution: strictly typed document object models generated from an
// XML Schema (one distinct type per element declaration, type definition
// and model group).
//
// The generated bindings (package codegen emits them) enforce the schema's
// *structure* at compile time: a child can only be placed where its Go
// type is accepted, choice groups are sealed interfaces, substitution
// groups and type extension are interface satisfaction. What remains
// dynamic — exactly the residue the paper concedes in §3 — is occurrence
// counting (rule 5), simple-type facet values (type restriction), and
// required attributes. Those checks live here and run when a typed tree is
// written; they cannot fail for programs that respect the documented
// constructor contracts.
//
// Where the paper's Java/IDL V-DOM makes every generated interface extend
// DOM's Element, Go has no implementation inheritance; the adaptation is
// that every generated node writes itself as XML text through a Writer
// (its WriteXML method; AppendXML is the entry point), and Marshal parses
// those bytes into the equivalent DOM document. There is one emission
// path, so the DOM view is exactly what a reader of the bytes sees.
//
// # Role in the pipeline
//
// vdom is the runtime half of codegen's output in the pipeline (xsd parse
// → normalize → contentmodel → codegen/vdom → validator → pxml): the
// generated packages under internal/gen call into it, its mixed-content
// checks reuse package contentmodel's matchers via the once-guarded
// ComplexType.Matcher, and the validator serves as the independent oracle
// that its written output is schema-valid.
//
// # Concurrency
//
// A typed tree under construction is a mutable value with no internal
// locking: build and marshal each tree from a single goroutine (the
// natural one-tree-per-request pattern), or synchronize externally.
// The schema and its compiled content models, by contrast, are shared
// safely across any number of trees and goroutines.
package vdom
