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
// the compiled matchers from package contentmodel, and judges trees built
// by package dom. The test suite also uses it as the independent oracle
// that everything the typed V-DOM API (package vdom) can express
// marshals to a valid document.
//
// # Streaming entry points
//
// Validator.Stream returns a StreamValidator, which decides validity
// incrementally from the token stream instead of a materialized tree:
// StreamValidator.ValidateReader consumes an io.Reader with memory
// proportional to tree depth (O(depth), no DOM allocation), and
// StreamValidator.ValidateBytes is its in-memory counterpart.
// ValidateReaderContext is the cancellable form — it checks the context
// between token batches and returns (nil, ctx.Err()) on expiry, the
// same contract as ValidateBatchContext; servers use it to stop
// validating when a request's deadline fires mid-stream. Both drive
// the same cached Glushkov automata as the DOM path through an explicit
// element/automaton-state stack and reproduce ValidateDocument's
// verdicts, violation order and messages exactly (held by the
// TestStreamMatchesDOM differential suite). Subtrees the streaming pass
// cannot decide incrementally — identity constraints, or content models
// compiled to the backtracking interpreter — are buffered privately and
// degrade to the recursive DOM path. cmd/xsdcheck exposes the streaming
// path as -stream.
//
// # Observers
//
// Both walks fire the same StreamEvents callbacks (events.go) when an
// observer is attached: ValidateDocumentEvents and ValidateElementEvents
// on the DOM walk, ValidateReaderEvents and ValidateBytesEvents on the
// streaming one. A buffered fallback subtree fires its events from the
// nested DOM run. Package bind decodes through this hook in the same pass
// that decides validity, and codegen's corpus-pruning pass records the
// declarations it reaches. Without an observer the walks pay one nil
// check per element.
//
// # Intra-document parallelism
//
// Validator.ParallelValidate splits one large document across a
// GOMAXPROCS-bounded worker pool at sibling-subtree boundaries: the
// walk descends until it finds a level with at least ParallelMinFanout
// children, fans contiguous chunks of that level out to workers running
// the ordinary cached-DFA walk, and joins the document-global state —
// ordered violations, first-wins ID semantics, IDREF resolution — at
// the seams via per-sub-run ID journals (see parallel.go). The verdict
// is byte-identical to ValidateDocument's, enforced by differential
// tests and FuzzParallelValidate; documents that reach the violation
// cap fall back to a sequential rerun. cmd/xsdcheck exposes it as
// -parallel, xsdserved as ?parallel=1 (size-gated).
//
// # Concurrency
//
// A Validator is safe for concurrent use by multiple goroutines and is
// intended to be shared: all mutable per-run state is private to each
// call, and compiled content models are memoized per complex type in a
// lock-free cache (sync.Map of sync.Once entries) for the Validator's
// lifetime, so each automaton is built exactly once no matter how many
// goroutines validate at once. Cached entries are never invalidated —
// the schema is immutable once resolved. ValidateBatch fans a document
// slice out over a GOMAXPROCS-sized worker pool on top of the same
// shared cache. A StreamValidator holds no per-run state either: it
// shares only the parent Validator's immutable schema and thread-safe
// model cache, so one StreamValidator may serve any number of
// goroutines, interleaved freely with DOM-path runs on the same
// Validator (asserted under -race by TestStreamConcurrent). Documents are only read; callers must not
// mutate a document while it is being validated.
package validator
