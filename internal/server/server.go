package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/bind"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/validator"
)

// Config tunes the validation service. The zero value of every field
// selects a production-safe default; only Registry is required.
type Config struct {
	// Registry resolves schema names to compiled validators. Required.
	Registry *registry.Registry
	// Metrics receives per-request measurements. Nil allocates a private
	// one (exported at /metrics either way).
	Metrics *obs.Metrics
	// Logger receives structured request logs. Nil disables logging.
	Logger *slog.Logger
	// MaxBodyBytes caps request bodies (http.MaxBytesReader). Zero means
	// 16 MiB. Oversized bodies get 413 without being read to the end.
	MaxBodyBytes int64
	// MaxConcurrent bounds simultaneously-running validations; arrivals
	// beyond it are shed immediately with 429 + Retry-After rather than
	// queued (queueing under overload only converts overload into
	// latency). Zero means 4 × GOMAXPROCS — validation is CPU-bound, so
	// a small multiple keeps cores busy through the read/parse phases
	// without letting work pile up.
	MaxConcurrent int
	// RequestTimeout is the per-request validation deadline. Zero means
	// 30 seconds.
	RequestTimeout time.Duration
	// MaxBatchDocs caps how many documents one /v1/validate-batch request
	// may carry. Zero means 256. The batch endpoint amortizes admission
	// and shedding over a document set, so the cap is what keeps one
	// request from monopolizing a concurrency slot indefinitely.
	MaxBatchDocs int
}

// Server is the HTTP validation service: request routing, body caps,
// deadlines, load shedding and metrics around the registry's validators.
// Create one with New and mount Handler on an http.Server.
type Server struct {
	reg      *registry.Registry
	metrics  *obs.Metrics
	log      *slog.Logger
	maxBody  int64
	timeout  time.Duration
	maxBatch int
	sem      chan struct{}
	mux      *http.ServeMux
	// soapSvcs routes /v1/soap/{service}; populated by RegisterSOAP
	// before serving starts, read-only afterwards.
	soapSvcs map[string]*soap.Service
	// draining flips when the process has been told to shut down:
	// /healthz answers 503 with Draining: true so load balancers and
	// cluster peers stop routing here before the listener closes.
	draining atomic.Bool
}

// New assembles the service from cfg.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		panic("server: Config.Registry is required")
	}
	m := cfg.Metrics
	if m == nil {
		m = &obs.Metrics{}
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 16 << 20
	}
	maxConc := cfg.MaxConcurrent
	if maxConc <= 0 {
		maxConc = 4 * runtime.GOMAXPROCS(0)
	}
	timeout := cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	maxBatch := cfg.MaxBatchDocs
	if maxBatch <= 0 {
		maxBatch = 256
	}
	s := &Server{
		reg:      cfg.Registry,
		metrics:  m,
		log:      cfg.Logger,
		maxBody:  maxBody,
		timeout:  timeout,
		maxBatch: maxBatch,
		sem:      make(chan struct{}, maxConc),
		mux:      http.NewServeMux(),
		soapSvcs: map[string]*soap.Service{},
	}
	s.mux.HandleFunc("POST /v1/validate/{schema}", s.handleValidate)
	s.mux.HandleFunc("POST /v1/validate-batch/{schema}", s.handleValidateBatch)
	s.mux.HandleFunc("POST /v1/decode/{schema}", s.handleDecode)
	s.mux.HandleFunc("POST /v1/encode/{schema}", s.handleEncode)
	s.mux.HandleFunc("GET /v1/schemas", s.handleSchemas)
	s.mux.HandleFunc("GET /v1/schemas/{schema}/compat", s.handleCompat)
	s.mux.HandleFunc("POST /v1/soap/{service}", s.handleSOAP)
	s.mux.HandleFunc("GET /v1/soap/{service}", s.handleSOAPWSDL)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Metrics returns the server's metrics registry (the one /metrics
// exports), so the binary can feed reload counters into it.
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// Handler returns the root handler: the route mux wrapped in request
// logging.
func (s *Server) Handler() http.Handler {
	if s.log == nil {
		return s.mux
	}
	return s.logging(s.mux)
}

// statusWriter records the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer (admit
// sets the read deadline of the real connection).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (s *Server) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"query", r.URL.RawQuery,
			"status", sw.status,
			"remote", r.RemoteAddr,
			"dur_ms", float64(time.Since(start).Microseconds())/1000)
	})
}

// --- response shapes ---

type violationJSON struct {
	Path string `json:"path"`
	Msg  string `json:"msg"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON encodes v into a buffer before writing, which yields an
// exact Content-Length (single-write responses, no chunked framing).
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		// Our own response structs cannot fail to encode; if one ever
		// does, a 500 beats a half-written body.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	writeJSONBody(w, code, buf.Bytes())
}

// writeJSONBody writes an encoded JSON body in one write with its exact
// Content-Length.
func writeJSONBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body) //nolint:errcheck // client gone; nothing to do
}

// outcome is what a request's run reports back to admit.
// code/errMsg are set for failures that never reached a verdict; res is
// the /v1/validate verdict; data is the payload for decode (the response
// body but its elapsed time) and encode (marshaled XML); invalid is how
// many documents the run found invalid, metered as the series' Invalid.
type outcome struct {
	res     *validator.Result
	data    []byte
	invalid int
	code    int
	errMsg  string
}

// verdict is the outcome of a run that judged one document.
func verdict(res *validator.Result) outcome {
	out := outcome{res: res}
	if !res.OK() {
		out.invalid = 1
	}
	return out
}

// serveSchema is the request lifecycle the validate, decode, encode and
// batch endpoints share. It resolves the {schema} path value (404 for an
// unknown name), admits the request and runs run against the body (see
// admit), meters the request under (schema, mode), and hands a success
// to reply with its elapsed time.
func (s *Server) serveSchema(w http.ResponseWriter, r *http.Request, mode string,
	run func(ctx context.Context, entry *registry.Entry, body *requestBody) outcome,
	reply func(entry *registry.Entry, out outcome, elapsed time.Duration)) {
	name := r.PathValue("schema")
	entry, ok := s.reg.Get(name)
	if !ok {
		// No metrics series for unknown names: the series key space must
		// stay bounded by the registry, not by what clients probe for.
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown schema %q", name)})
		return
	}
	series := s.metrics.Series(name, mode)
	start := time.Now()
	out, ok := s.admit(w, r, series, func(ctx context.Context, body *requestBody) outcome {
		return run(ctx, entry, body)
	})
	if !ok {
		return
	}
	elapsed := time.Since(start)
	series.Requests.Inc()
	series.Latency.Observe(elapsed)
	// Invalid meters documents, not requests: a batch of 100 with 3 bad
	// documents moves the series by 3, the same load 100 per-doc requests
	// would have produced.
	series.Invalid.Add(int64(out.invalid))
	reply(entry, out, elapsed)
}

// admit runs fn against the request body inside a reserved concurrency
// slot, with the request deadline enforced, and answers whatever did not
// succeed: shed load as 429 before the body is touched, a failed outcome
// as typed JSON counted in the series' Errors. ok is false when it has
// answered.
//
// fn runs on the handler's own goroutine. The deadline reaches it two
// ways: as ctx, which the stream paths and the batch poll, and as the
// connection's read deadline, so that a body read parked on a stalled
// client fails at the deadline instead of waiting for bytes. The read
// deadline covers the body only: net/http clears it when the body has
// been read to its end and it starts its own read of the connection, and
// again before the next request. Whatever fn returns, a request whose
// deadline has passed is answered 504. The slot and the in-flight gauge
// are given back as fn returns, before the answer is written, and a
// panic in fn is answered as a typed 500.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, series *obs.Series,
	fn func(ctx context.Context, body *requestBody) outcome) (outcome, bool) {
	select {
	case s.sem <- struct{}{}:
	default:
		series.Shed.Inc()
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "server at concurrency limit, retry later"})
		return outcome{}, false
	}
	s.metrics.InFlight.Inc()

	deadline := time.Now().Add(s.timeout)
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	http.NewResponseController(w).SetReadDeadline(deadline) //nolint:errcheck // best effort; h1 and h2 both support it
	// A length declared over the cap sizes the read at the cap: the read
	// fails there, as a 413.
	body := &requestBody{r: http.MaxBytesReader(w, r.Body, s.maxBody), limit: s.maxBody,
		declared: min(r.ContentLength, s.maxBody)}

	out := s.run(ctx, body, fn)
	// The read deadline and the context's timer fire at the same instant,
	// so a read failed by the one may return before the other has
	// cancelled ctx: the clock decides.
	if ctx.Err() != nil || !time.Now().Before(deadline) {
		out = outcome{code: http.StatusGatewayTimeout, errMsg: "request deadline exceeded"}
	}
	if out.code != 0 {
		series.Errors.Inc()
		s.writeJSON(w, out.code, errorResponse{Error: out.errMsg})
		return outcome{}, false
	}
	return out, true
}

// run calls fn in the slot admit reserved and gives the slot and the
// in-flight gauge back when fn returns or panics, so a request that has
// been answered holds neither.
func (s *Server) run(ctx context.Context, body *requestBody,
	fn func(ctx context.Context, body *requestBody) outcome) (out outcome) {
	defer func() {
		if p := recover(); p != nil {
			out = outcome{code: http.StatusInternalServerError, errMsg: fmt.Sprintf("request panic: %v", p)}
		}
		s.metrics.InFlight.Dec()
		<-s.sem
	}()
	return fn(ctx, body)
}

// requestBody is a request body behind the size cap. It counts the bytes
// read and records whether a read failed at the cap, so that the
// whole-body reads and the streaming decoders, which fold reader errors
// into their parse verdict, answer an oversized body with the same 413.
type requestBody struct {
	r        io.Reader
	limit    int64 // the cap
	declared int64 // Content-Length, at most the cap; -1 when unknown (chunked)
	n        int   // bytes read
	overCap  bool  // a read failed at the cap
}

func (b *requestBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += n
	var mbe *http.MaxBytesError
	if err != nil && errors.As(err, &mbe) {
		b.overCap = true
	}
	return n, err
}

// tooLarge is the answer to a body that hit the cap.
func (b *requestBody) tooLarge() outcome {
	return outcome{code: http.StatusRequestEntityTooLarge,
		errMsg: fmt.Sprintf("request body exceeds the %d-byte limit", b.limit)}
}

// maxUpfrontBody bounds the buffer readBody sizes from a declared length
// before any byte has arrived: a client that declares 16 MiB and sends
// nothing holds at most this much per concurrency slot.
const maxUpfrontBody = 1 << 20

// readBody reads a whole request body for the endpoints that need the
// document in memory. A body over the cap is a 413, any other read
// failure a 400, and a deadline that expired during the read a 504; in
// those cases the returned outcome carries the code and data is nil.
func readBody(ctx context.Context, body *requestBody) ([]byte, outcome) {
	data, err := readAll(body, body.declared)
	if body.overCap {
		return nil, body.tooLarge()
	}
	if err != nil {
		return nil, outcome{code: http.StatusBadRequest, errMsg: fmt.Sprintf("reading request body: %v", err)}
	}
	if ctx.Err() != nil {
		return nil, outcome{code: http.StatusGatewayTimeout, errMsg: "request deadline exceeded"}
	}
	return data, outcome{}
}

// readAll is io.ReadAll into a buffer sized for the declared length (up to
// maxUpfrontBody), so a body that arrives as declared is read without
// regrowing the buffer; an undeclared (negative) or longer one grows by
// appending, from io.ReadAll's 512 bytes. The spare byte lets the read
// that reports EOF land without growth.
func readAll(r io.Reader, declared int64) ([]byte, error) {
	size := 512
	if declared >= 0 {
		size = int(min(declared, maxUpfrontBody)) + 1
	}
	b := make([]byte, 0, size)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// handleValidate runs POST /v1/validate/{schema}[?stream=1].
//
// ?parallel=1 is an older spelling of ?stream=1, kept so that existing
// callers do not break: streaming from the body is the fastest walk for a
// large document.
//
// The verdict contract matches the library: a well-formed document that
// violates the schema is a 200 with valid:false (validation succeeded,
// the document didn't), and — like validator.ValidateBytes — a malformed
// document is a 200 with valid:false carrying the parse error as its one
// violation. Non-200s mean the service couldn't produce a verdict:
// unknown schema (404), body over the cap (413), shed load (429),
// deadline (504).
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	mode := "dom"
	if q := r.URL.Query(); q.Get("stream") == "1" || q.Get("parallel") == "1" {
		mode = "stream"
	}
	s.serveSchema(w, r, mode, func(ctx context.Context, entry *registry.Entry, body *requestBody) outcome {
		return runValidation(ctx, entry, mode, body)
	}, func(entry *registry.Entry, out outcome, elapsed time.Duration) {
		resp := decodeResponse{Schema: entry.Name, SchemaVersion: entry.Version, Mode: mode,
			Valid: out.res.OK(), Violations: violationsOf(out.res)}
		writeJSONBody(w, http.StatusOK, appendElapsed(resp.appendHead(make([]byte, 0, 256)), int64(elapsed)))
	})
}

// violationsOf is a verdict's violations as the responses carry them.
func violationsOf(res *validator.Result) []violationJSON {
	var out []violationJSON
	for _, v := range res.Violations {
		out = append(out, violationJSON{Path: v.Path, Msg: v.Msg})
	}
	return out
}

// runValidation produces a verdict through the requested path.
func runValidation(ctx context.Context, entry *registry.Entry, mode string, body *requestBody) outcome {
	if mode == "stream" {
		res, err := entry.Stream.ValidateReaderContext(ctx, body)
		if body.overCap {
			return body.tooLarge()
		}
		if err != nil {
			// Deadline or cancel mid-stream.
			return outcome{code: http.StatusGatewayTimeout, errMsg: "validation deadline exceeded"}
		}
		return verdict(res)
	}
	data, fail := readBody(ctx, body)
	if fail.code != 0 {
		return fail
	}
	doc, perr := entry.Validator.Parse(data)
	if perr != nil {
		// Library parity (validator.ValidateBytes): malformedness is the
		// verdict, not a transport error.
		return verdict(&validator.Result{Violations: []validator.Violation{{Path: "/", Msg: perr.Error()}}})
	}
	res := entry.Validator.ValidateDocument(doc)
	doc.Release()
	return verdict(res)
}

// decodeResponse is a verdict plus, for /v1/decode, the decoded document
// as canonical JSON (present only when the document is valid).
// /v1/validate answers the same members without data.
type decodeResponse struct {
	Schema        string          `json:"schema"`
	SchemaVersion int             `json:"schema_version"`
	Mode          string          `json:"mode"`
	Valid         bool            `json:"valid"`
	Violations    []violationJSON `json:"violations,omitempty"`
	Data          json.RawMessage `json:"data,omitempty"`
	ElapsedNs     int64           `json:"elapsed_ns"`
}

// appendJSON appends the response as json.Encoder encodes it, newline
// included, except that Data is copied in as is. Data is Binder.JSON
// output, already compact and escaped as encoding/json escapes, which the
// encoder would otherwise re-scan and compact byte by byte.
func (r *decodeResponse) appendJSON(dst []byte) []byte {
	dst = r.appendHead(dst)
	if len(r.Data) > 0 {
		dst = append(dst, `,"data":`...)
		dst = append(dst, r.Data...)
	}
	return appendElapsed(dst, r.ElapsedNs)
}

// appendHead appends the response up to its data.
func (r *decodeResponse) appendHead(dst []byte) []byte {
	dst = append(dst, `{"schema":`...)
	dst = bind.AppendJSONString(dst, r.Schema)
	dst = append(dst, `,"schema_version":`...)
	dst = strconv.AppendInt(dst, int64(r.SchemaVersion), 10)
	dst = append(dst, `,"mode":`...)
	dst = bind.AppendJSONString(dst, r.Mode)
	dst = append(dst, `,"valid":`...)
	dst = strconv.AppendBool(dst, r.Valid)
	if len(r.Violations) > 0 {
		dst = append(dst, `,"violations":[`...)
		for i, v := range r.Violations {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"path":`...)
			dst = bind.AppendJSONString(dst, v.Path)
			dst = append(dst, `,"msg":`...)
			dst = bind.AppendJSONString(dst, v.Msg)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return dst
}

// appendElapsed appends the response's last member and closes it.
func appendElapsed(dst []byte, ns int64) []byte {
	dst = append(dst, `,"elapsed_ns":`...)
	dst = strconv.AppendInt(dst, ns, 10)
	return append(dst, "}\n"...)
}

// handleDecode runs POST /v1/decode/{schema}[?stream=1]: validate and
// decode in one pass, answering the verdict plus — when valid — the
// document as canonical JSON. The status-code contract matches
// /v1/validate: an invalid document is a 200 with valid:false and no
// data, not an error.
func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	mode := "decode-dom"
	if r.URL.Query().Get("stream") == "1" {
		mode = "decode-stream"
	}
	s.serveSchema(w, r, mode, func(ctx context.Context, entry *registry.Entry, body *requestBody) outcome {
		return runDecode(ctx, entry, mode, body)
	}, func(_ *registry.Entry, out outcome, elapsed time.Duration) {
		writeJSONBody(w, http.StatusOK, appendElapsed(out.data, int64(elapsed)))
	})
}

// runDecode produces a verdict and, when valid, the canonical JSON. The
// response is written inside the scoped decode: the value tree's memory
// goes back to the binder's pools when the call returns.
func runDecode(ctx context.Context, entry *registry.Entry, mode string, body *requestBody) outcome {
	var out outcome
	if mode == "decode-stream" {
		err := entry.Binder.DecodeReaderScoped(ctx, body, func(v *bind.Value, res *validator.Result) {
			out = decodeOutcome(entry, mode, v, res, body.n)
		})
		if body.overCap {
			return body.tooLarge()
		}
		if err != nil {
			if ctx.Err() != nil {
				return outcome{code: http.StatusGatewayTimeout, errMsg: "request deadline exceeded"}
			}
			return outcome{code: http.StatusInternalServerError, errMsg: err.Error()}
		}
		return out
	}
	data, fail := readBody(ctx, body)
	if fail.code != 0 {
		return fail
	}
	entry.Binder.DecodeBytesScoped(data, func(v *bind.Value, res *validator.Result) {
		out = decodeOutcome(entry, mode, v, res, len(data))
	})
	return out
}

// decodeOutcome writes a /v1/decode response up to its elapsed time: the
// verdict, and the canonical JSON of v when it is valid. It writes once,
// into a buffer sized from the request's size: canonical JSON is rarely
// longer than the XML it projects.
func decodeOutcome(entry *registry.Entry, mode string, v *bind.Value, res *validator.Result, size int) outcome {
	resp := decodeResponse{Schema: entry.Name, SchemaVersion: entry.Version, Mode: mode,
		Valid: res.OK(), Violations: violationsOf(res)}
	out := verdict(res)
	out.data = resp.appendHead(make([]byte, 0, size+256))
	if v != nil {
		out.data = entry.Binder.AppendJSON(append(out.data, `,"data":`...), v)
	}
	return out
}

// handleEncode runs POST /v1/encode/{schema}: the body is canonical JSON
// (the /v1/decode projection); the response is the marshaled XML document,
// validated as it was written. Malformed or unmappable JSON is a 400; JSON
// that maps to a schema-invalid document is a 422 carrying the first
// violation.
func (s *Server) handleEncode(w http.ResponseWriter, r *http.Request) {
	s.serveSchema(w, r, "encode", runEncode, func(entry *registry.Entry, out outcome, _ time.Duration) {
		w.Header().Set("Content-Type", "application/xml")
		w.Header().Set("X-Schema-Version", fmt.Sprintf("%d", entry.Version))
		w.WriteHeader(http.StatusOK)
		w.Write(out.data) //nolint:errcheck // client gone; nothing to do
	})
}

// runEncode maps canonical JSON back to schema-valid XML.
func runEncode(ctx context.Context, entry *registry.Entry, body *requestBody) outcome {
	data, fail := readBody(ctx, body)
	if fail.code != 0 {
		return fail
	}
	// The value tree lives only inside the scoped call. The document is
	// marshaled into a buffer sized from the body: the XML of canonical
	// JSON runs about 1.45 times its length (end tags; the primer's
	// purchase orders of 1 to 150 items read 1.24 to 1.46).
	var xml []byte
	var merr error
	if err := entry.Binder.FromJSONScoped(data, func(v *bind.Value) {
		xml, merr = entry.Binder.AppendMarshal(make([]byte, 0, len(data)*3/2), v)
	}); err != nil {
		return outcome{code: http.StatusBadRequest, errMsg: err.Error()}
	}
	if merr != nil {
		return outcome{code: http.StatusUnprocessableEntity, errMsg: merr.Error()}
	}
	return outcome{data: xml}
}

// --- introspection endpoints ---

type schemaInfo struct {
	Name     string    `json:"name"`
	Version  int       `json:"version"`
	LoadedAt time.Time `json:"loaded_at"`
	Path     string    `json:"path"`
	// Files is the size of the dependency closure (root plus every
	// included/imported document).
	Files int `json:"files"`
	// Compat is the classification of this version against the previous
	// one; empty for a first version.
	Compat string `json:"compat,omitempty"`
}

type schemasResponse struct {
	Generation int64             `json:"generation"`
	Schemas    []schemaInfo      `json:"schemas"`
	LoadErrors map[string]string `json:"load_errors,omitempty"`
}

func (s *Server) handleSchemas(w http.ResponseWriter, _ *http.Request) {
	resp := schemasResponse{Generation: s.reg.Generation(), Schemas: []schemaInfo{}}
	for _, e := range s.reg.List() {
		info := schemaInfo{
			Name: e.Name, Version: e.Version, LoadedAt: e.LoadedAt, Path: e.Path,
			Files: len(e.Files),
		}
		if e.Compat != nil {
			info.Compat = e.Compat.Level.String()
		}
		resp.Schemas = append(resp.Schemas, info)
	}
	if errs := s.reg.Errors(); len(errs) > 0 {
		resp.LoadErrors = errs
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// compatResponse is the payload of GET /v1/schemas/{schema}/compat: the
// compatibility classification of the serving version against the one it
// replaced. A first version has no predecessor, so level is absent and
// message explains why.
type compatResponse struct {
	Schema         string   `json:"schema"`
	SchemaVersion  int      `json:"schema_version"`
	Level          string   `json:"level,omitempty"`
	Backward       bool     `json:"backward"`
	Forward        bool     `json:"forward"`
	BackwardBreaks []string `json:"backward_breaks,omitempty"`
	ForwardBreaks  []string `json:"forward_breaks,omitempty"`
	Message        string   `json:"message,omitempty"`
	// LoadError surfaces a pending load failure for the name — including
	// a gate rejection, in which case the served version predates it.
	LoadError string `json:"load_error,omitempty"`
}

// handleCompat reports how the served version of a schema compares to
// its predecessor (backward / forward / full / none), with the concrete
// break reasons. 404 for unknown names.
func (s *Server) handleCompat(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("schema")
	entry, ok := s.reg.Get(name)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown schema %q", name)})
		return
	}
	resp := compatResponse{
		Schema:        entry.Name,
		SchemaVersion: entry.Version,
		LoadError:     s.reg.Errors()[name],
	}
	if entry.Compat == nil {
		resp.Message = "first loaded version; no previous version to compare against"
	} else {
		resp.Level = entry.Compat.Level.String()
		resp.Backward = entry.Compat.Backward()
		resp.Forward = entry.Compat.Forward()
		resp.BackwardBreaks = entry.Compat.BackwardBreaks
		resp.ForwardBreaks = entry.Compat.ForwardBreaks
	}
	s.writeJSON(w, http.StatusOK, resp)
}

type healthResponse struct {
	Status   string `json:"status"`
	Schemas  int    `json:"schemas"`
	Draining bool   `json:"draining,omitempty"`
}

// SetDraining flips the drain announcement: while set, /healthz answers
// 503 with a "Draining: true" header so load balancers and cluster
// peers stop routing new work here, while every other endpoint keeps
// serving — the graceful-shutdown sequence announces first, then stops
// the listener, so requests in flight when the announcement lands still
// finish normally.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the drain announcement is active.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleHealthz reports liveness plus a degraded flag when the registry
// serves nothing (an empty or unreadable schema directory): a load
// balancer should stop routing to an instance that can't validate
// anything. A draining process answers 503 with Draining: true — the
// same contract, announced before connections close instead of after.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	n := len(s.reg.List())
	if s.draining.Load() {
		w.Header().Set("Draining", "true")
		s.writeJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "draining", Schemas: n, Draining: true})
		return
	}
	if n == 0 {
		s.writeJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "no schemas loaded", Schemas: 0})
		return
	}
	s.writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Schemas: n})
}

// handleMetrics exports the metrics snapshot enriched with the registry's
// published generation and schema count, so scrapers can correlate metric
// movements with hot reloads.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	snap := s.metrics.Snapshot()
	snap.Registry = &obs.RegistryInfo{Generation: s.reg.Generation(), Schemas: len(s.reg.List())}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap) //nolint:errcheck // client gone; nothing to do
}
