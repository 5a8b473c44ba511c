// Package server is the HTTP face of the validation service: it turns
// the registry's compiled validators into network endpoints with the
// protections a long-running, shared service needs — body caps,
// per-request deadlines, load shedding and metrics — while keeping the
// library's verdict semantics exactly.
//
// # Endpoints
//
//	POST /v1/validate/{schema}          validate the body (DOM path)
//	POST /v1/validate/{schema}?stream=1 validate incrementally (O(depth))
//	POST /v1/validate-batch/{schema}    validate a JSON set of documents, each streamed from its bytes
//	POST /v1/decode/{schema}            validate + decode to canonical JSON (?stream=1 one-pass)
//	POST /v1/encode/{schema}            canonical JSON back to schema-valid XML
//	GET  /v1/schemas                    registry contents, versions, closure sizes, load errors
//	GET  /v1/schemas/{schema}/compat    evolution report for the last accepted reload
//	GET  /healthz                       liveness (503 when nothing loaded)
//	GET  /metrics                       obs JSON snapshot (incl. compat tallies)
//
// The compat endpoint exposes the registry's classification of the
// schema's most recent version transition (backward/forward/full/none,
// with per-direction break reasons); version 1 carries an explanatory
// message instead of a level, and a pending load or gate rejection is
// surfaced as load_error alongside the serving version's report.
//
// A 200 always carries a verdict: valid:true, or valid:false with the
// violation list (malformed XML is a verdict too, mirroring
// validator.ValidateBytes). Non-200s mean no verdict was produced:
// 404 unknown schema, 413 body over the cap, 429 shed by the
// concurrency limiter (with Retry-After), 504 deadline exceeded.
//
// # Request lifecycle
//
// Validate, decode, encode and batch share one lifecycle (serveSchema):
// resolve the schema, admit, run, answer a failure as typed JSON, meter
// the request. A handler contributes only its mode, its run step and its
// 200 writer. SOAP shares the admission and run step (admit) and meters
// per operation itself. The request body behind the
// cap records whether a read hit it, so the whole-body reads and the
// streaming decoders answer an oversized body with the same 413.
//
// # Backpressure
//
// Admission is a semaphore sized by Config.MaxConcurrent. A request that
// cannot get a slot is rejected immediately with 429 — before its body
// is read — rather than queued: under sustained overload a queue only
// converts overload into latency for everyone. An admitted request runs
// on the goroutine net/http gave it, with no hand-off. Before the run,
// admit sets the connection's read deadline to the request deadline
// (http.ResponseController), so a body read parked on a stalled client
// fails at the deadline; the stream paths and the batch also watch the
// request context. A request whose deadline has passed when its run
// returns is answered 504. The slot is held until the run truly stops,
// so a slowloris client holds its own slot and cannot make the limiter
// overadmit.
//
// # Role in the pipeline
//
// server is the middle of the serving layer (registry → server → obs):
// it resolves schemas through registry.Get — inheriting the hot-swap
// drain guarantee, an in-flight request finishes on the version it
// resolved — and records every request into an obs.Metrics. cmd/xsdserved
// wires it to flags, signals and graceful shutdown.
package server
