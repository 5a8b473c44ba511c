// Package dom implements a Document Object Model core in the spirit of DOM
// Level 1/2, over the xmlparser token stream.
//
// This is the paper's *untyped* baseline: every element is a generic
// *Element, every tree mutation is legal as long as the generic hierarchy
// constraints hold, and validity against a schema can only be established
// by running a validator over the finished tree (package validator). The
// typed counterpart that makes invalid trees unrepresentable is package
// vdom.
//
// # Role in the pipeline
//
// dom sits beside the pipeline proper (xsd parse → normalize →
// contentmodel → codegen/vdom → validator → pxml) as the document
// substrate: xmlparser tokens are assembled into dom trees, the runtime
// validator walks them, and vdom's DOM view is parsed from the bytes its
// typed nodes write.
//
// # Allocation
//
// Parse builds its documents from a pooled slab arena (NewPooledDocument):
// Element, Text and Attr nodes are handed out from 64-entry slabs
// recycled through sync.Pools, so the per-node allocations that dominate
// DOM build cost disappear on warm parse loops. Callers on hot
// parse-validate-discard paths may call Document.Release to return the
// slabs immediately; after Release no node of that document may be
// touched. Releasing is optional — an un-Released document is simply
// collected by the GC.
//
// The lists that link a parsed tree come from slabs too. Parse keeps the
// children of the open elements on one stack and, at each end tag, copies
// an element's run into one exact-size list carved from a pooled slab,
// setting each child's parent and index once: a fresh node under an
// element needs none of AppendChild's checks, detaching or renumbering.
// Attribute lists are carved at the start tag. Document-level nodes still
// go through AppendChild, which enforces the single root. A parse that
// reads names through a table (xmlparser.Options.Names) keeps each
// element's ID in it (Element.SymbolID), for the validator's replay.
//
// # Concurrency
//
// Documents are plain mutable trees with no internal locking or lazily
// computed state. Any number of goroutines may read one document
// concurrently (all accessors are pure) — that is what lets many
// validator runs replay one parsed document at once — but mutation
// requires external synchronization: never mutate
// a node while another goroutine reads or writes the same tree. Distinct
// documents are fully independent.
package dom
