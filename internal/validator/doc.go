// Package validator checks DOM documents against a parsed XML Schema at
// runtime. This is the paper's baseline: with plain DOM, "invalid
// documents usually cannot be detected until runtime requiring extensive
// testing" (§2) — this package is that runtime detection, and the E2
// benchmarks measure exactly the cost V-DOM's static guarantee removes.
//
// Beyond the paper's scope it also implements the features the paper
// explicitly defers (§3): wildcard validation, ID/IDREF integrity and
// identity constraints (xs:unique/key/keyref).
//
// # Role in the pipeline
//
// validator sits at the end of the runtime half of the pipeline
// (xsd parse → normalize → contentmodel → codegen/vdom → validator →
// pxml): it consumes the resolved component model from package xsd and
// the compiled matchers from package contentmodel, and judges documents
// as token streams or as trees built by package dom. The test suite also uses it as the independent oracle
// that everything the typed V-DOM API (package vdom) can express
// marshals to a valid document.
//
// # One walk, any token source
//
// Every entry point runs one validation machine (stream.go): an explicit
// stack of element frames that steps the schema's Glushkov automata one
// child at a time, with O(depth) memory and no recursion per element. It
// takes its tokens from a TokenSource:
//
//   - the decoder, for the streaming entry points: Validator.Stream
//     returns a StreamValidator whose ValidateReader consumes an io.Reader
//     and whose ValidateBytes validates an in-memory document, neither
//     building a DOM, and whose ValidateBatch validates a slice of
//     serialized documents. ValidateReaderContext is the cancellable form
//     — it checks the context between token batches and returns (nil,
//     ctx.Err()) on expiry; servers use it to stop validating when a
//     request's deadline fires mid-stream. cmd/xsdcheck validates every
//     document this way;
//   - a replay of a parsed tree, for ValidateDocument and ValidateElement
//     (tree.go);
//   - bind's Marshal encoder, through ValidateTokens.
//
// The machine needs no more than the token at hand: every content model,
// counted ones and all groups included, steps one child at a time in
// O(depth) memory; identity constraints are checked on the tokens as they
// pass, at the cost of the open scopes' keys (identity.go); and a raw
// wildcard subtree reaches the observer as the text it serializes to,
// written as its tokens pass (raw.go). The machine never builds a DOM: the
// DOM enters the package only as a token source (tree.go), whose
// ValidateDocument and ValidateElement runs share every code path with
// the decoder's.
// Whatever the source, the verdict, the violation order and the messages
// are the same (held by the TestStreamMatchesDOM differential suite and by
// the pinned verdicts in testdata/validator_verdicts.txt).
//
// # Observers
//
// The *Events entry points — ValidateDocumentEvents and
// ValidateElementEvents on a tree, ValidateReaderEvents and
// ValidateBytesEvents on the decoder — attach a StreamEvents observer to
// the machine (events.go), which fires the same callbacks whatever the
// source. Package bind decodes through this hook in the same pass that
// decides validity. Without an observer the machine pays one nil check
// per element.
//
// # Concurrency
//
// A Validator is safe for concurrent use by multiple goroutines: all
// mutable per-run state is private to each call. The validator keeps no
// compiled state of its own: each complex type's content model is
// compiled once by the schema (xsd.ComplexType.Matcher) and shared with
// every Validator and every other consumer, so creating a Validator costs
// nothing and each automaton is built exactly once no matter how many
// goroutines validate at once. Options.DisableDFA and DFAStateBudget
// apply per run on that shared automaton. StreamValidator.ValidateBatch
// fans a slice of serialized documents out over a GOMAXPROCS-sized worker
// pool, one ValidateBytes run per document. Parallelism stops at the
// document: one document is one walk, since splitting it needs the whole
// DOM first and loses to streaming from bytes (EXPERIMENTS.md E15). A
// StreamValidator holds no per-run state either, so one may serve any
// number of goroutines, interleaved freely with tree runs on the same
// Validator (asserted under -race by TestStreamConcurrent). Documents are
// only read; callers must not mutate a document while it is being
// validated.
package validator
