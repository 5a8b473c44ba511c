// Package registry serves named, versioned, compiled XML Schemas loaded
// from a directory tree, with atomic hot-swap on change — the
// schema-evolution story of the paper's §5 (naming stability across
// schema versions) operationalized for a long-running validation
// service.
//
// Each top-level *.xsd file in the directory becomes one Entry keyed by
// its base name, carrying the parsed xsd.Schema, a shared
// validator.Validator (whose compiled content-model cache is warm for
// the entry's lifetime), a monotonically increasing per-name Version,
// and the entry's full dependency closure: every document reached
// through xs:include / xs:import / xs:redefine, with the file state
// observed at compile time. Subdirectories are not scanned for entries,
// so a conventional lib/ folder holds shared parts without serving them.
//
// # Swap protocol and invalidation
//
// The registry's whole state is one immutable snapshot behind an
// atomic.Pointer. Readers (Get, List, Errors, Generation) are wait-free:
// one atomic load, then plain reads of immutable data. Reload builds the
// next snapshot entirely aside and then swaps the pointer, so there is
// no state a reader can observe half-updated, and an in-flight
// validation that already resolved an Entry drains on the old version
// untouched; its Validator is reclaimed by the garbage collector once
// the last request lets go.
//
// Invalidation is by closure: an entry is kept — same Validator, same
// warm automaton caches — iff every file in its closure has unchanged
// (ModTime, Size), so editing one imported file recompiles exactly the
// dependents whose closure contains it. Changed schemas compile in
// parallel under a GOMAXPROCS-bounded pool with a per-reload cache that
// stats and reads each unique file once, and shares each parsed
// document, no matter how many schemas import it — the cold-start path
// EXPERIMENTS.md E13 and E17 measure. A file that fails to parse keeps
// its previous good version serving and reports through Errors.
//
// # Compatibility gating
//
// Every recompile of a schema with a serving version is classified by
// compat.Classify (Entry.Compat) and observed through OnCompat. When
// Gate is set, a new version whose classification does not satisfy it is
// not published: the previous version keeps serving and the rejection
// surfaces through Errors as a *GateError. Gating is per transition,
// always against the currently serving version.
//
// Watch polls on an interval and on a kick channel (the xsdserved binary
// wires SIGHUP into it); there is deliberately no fsnotify dependency.
//
// # Role in the pipeline
//
// registry is the bottom of the serving layer (registry → server → obs):
// package server resolves every request's schema through Get, and the
// hot-swap race test in this package is the serving-layer counterpart of
// the validator's concurrency suite.
package registry
