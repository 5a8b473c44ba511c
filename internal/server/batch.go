package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/registry"
	"repro/internal/validator"
)

// batchRequest is the body of POST /v1/validate-batch/{schema}: a set of
// XML documents carried as JSON strings, validated together under one
// admission slot and one deadline.
type batchRequest struct {
	Documents []string `json:"documents"`
}

// batchResult is one document's verdict, index-aligned with the request.
type batchResult struct {
	Valid      bool            `json:"valid"`
	Violations []violationJSON `json:"violations,omitempty"`
}

// batchResponse is the payload of POST /v1/validate-batch/{schema}.
type batchResponse struct {
	Schema        string        `json:"schema"`
	SchemaVersion int           `json:"schema_version"`
	Count         int           `json:"count"`
	Valid         int           `json:"valid"`
	Invalid       int           `json:"invalid"`
	Results       []batchResult `json:"results"`
	ElapsedNs     int64         `json:"elapsed_ns"`
}

// handleValidateBatch runs POST /v1/validate-batch/{schema}: the body is
// {"documents": ["<xml…>", …]} and the response carries one verdict per
// document, index-aligned. The whole set costs ONE admission — one
// shedding decision, one concurrency slot, one deadline — which is the
// point: at high document rates the per-request overhead (semaphore,
// headers, JSON framing) dominates small validations, and batching
// amortizes it. Inside the slot the request's goroutine and up to
// GOMAXPROCS−1 helpers share the documents (StreamValidator.ValidateBatch),
// each validated from its bytes without a DOM, so a batch uses the cores
// a single document cannot. The body is read in one pass when it has the
// shape clients send (batchDocuments), and by json.Unmarshal otherwise.
//
// The per-document verdict contract matches /v1/validate: a malformed
// document is valid:false with the parse error as its violation, never a
// request-level error. Request-level failures are the transport ones:
// unknown schema (404), malformed JSON or an empty/oversized set (400),
// body over the cap (413), shed (429), deadline (504).
func (s *Server) handleValidateBatch(w http.ResponseWriter, r *http.Request) {
	var results []batchResult
	s.serveSchema(w, r, "batch", func(ctx context.Context, entry *registry.Entry, body *requestBody) outcome {
		data, fail := readBody(ctx, body)
		if fail.code != 0 {
			return fail
		}
		docs, ok := batchDocuments(data)
		if !ok {
			var req batchRequest
			if err := json.Unmarshal(data, &req); err != nil {
				return outcome{code: http.StatusBadRequest, errMsg: fmt.Sprintf("batch body is not JSON: %v", err)}
			}
			docs = make([][]byte, len(req.Documents))
			for i, doc := range req.Documents {
				docs[i] = []byte(doc)
			}
		}
		if len(docs) == 0 {
			return outcome{code: http.StatusBadRequest, errMsg: "batch carries no documents"}
		}
		if len(docs) > s.maxBatch {
			return outcome{code: http.StatusBadRequest,
				errMsg: fmt.Sprintf("batch carries %d documents, limit is %d", len(docs), s.maxBatch)}
		}
		var out outcome
		results, out = runBatch(ctx, entry.Stream, docs)
		return out
	}, func(entry *registry.Entry, out outcome, elapsed time.Duration) {
		s.writeJSON(w, http.StatusOK, batchResponse{
			Schema:        entry.Name,
			SchemaVersion: entry.Version,
			Count:         len(results),
			Valid:         len(results) - out.invalid,
			Invalid:       out.invalid,
			Results:       results,
			ElapsedNs:     int64(elapsed),
		})
	})
}

// batchDocuments reads a batch body of the shape clients send,
// {"documents":["…",…]} with JSON whitespace between tokens, in one pass.
// Each document is unescaped into one buffer the size of the body, and the
// documents are slices of it. It declines (ok is false) every other body:
// other or repeated keys, another key case, null, a lone surrogate, a
// control character or invalid UTF-8 in a string, malformed or trailing
// data. json.Unmarshal reads those, and stays the reference for them and
// the source of their error text. What it accepts, json.Unmarshal reads as
// the same documents (FuzzBatchBody).
func batchDocuments(data []byte) (docs [][]byte, ok bool) {
	const head = `"documents"`
	i := skipSpace(data, 0)
	if !expect(data, i, '{') {
		return nil, false
	}
	i = skipSpace(data, i+1)
	if !bytes.HasPrefix(data[i:], []byte(head)) {
		return nil, false
	}
	i = skipSpace(data, i+len(head))
	if !expect(data, i, ':') {
		return nil, false
	}
	i = skipSpace(data, i+1)
	if !expect(data, i, '[') {
		return nil, false
	}
	i = skipSpace(data, i+1)
	buf := make([]byte, 0, len(data))
	for !expect(data, i, ']') {
		if len(docs) > 0 {
			if !expect(data, i, ',') {
				return nil, false
			}
			i = skipSpace(data, i+1)
		}
		if !expect(data, i, '"') {
			return nil, false
		}
		start := len(buf)
		if buf, i, ok = unquoteInto(buf, data, i+1); !ok {
			return nil, false
		}
		docs = append(docs, buf[start:len(buf):len(buf)])
		i = skipSpace(data, i)
	}
	i = skipSpace(data, i+1)
	if !expect(data, i, '}') || skipSpace(data, i+1) != len(data) {
		return nil, false
	}
	return docs, true
}

// expect reports whether data holds c at i.
func expect(data []byte, i int, c byte) bool { return i < len(data) && data[i] == c }

// skipSpace returns the offset of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// unquoteInto appends the contents of the JSON string whose opening quote
// precedes src[i], decoded as encoding/json decodes it, and returns the
// offset past its closing quote. ok is false for a string it leaves to
// encoding/json: an unterminated one, a bad escape, a control character,
// a surrogate escape that is not half of a pair, or invalid UTF-8, the
// last two of which encoding/json turns into U+FFFD.
func unquoteInto(dst, src []byte, i int) (_ []byte, next int, ok bool) {
	for {
		// Copy the run of bytes the string carries as they are.
		j := i
		for j < len(src) && src[j] >= 0x20 && src[j] < utf8.RuneSelf && src[j] != '"' && src[j] != '\\' {
			j++
		}
		dst = append(dst, src[i:j]...)
		if i = j; i >= len(src) {
			return dst, i, false
		}
		switch c := src[i]; {
		case c == '"':
			return dst, i + 1, true
		case c == '\\':
			if i+1 >= len(src) {
				return dst, i, false
			}
			switch e := src[i+1]; e {
			case '"', '\\', '/':
				dst = append(dst, e)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(src, i+2)
				if utf16.IsSurrogate(r) {
					if !expect(src, i+6, '\\') || !expect(src, i+7, 'u') {
						return dst, i, false
					}
					r = utf16.DecodeRune(r, hex4(src, i+8))
					if r == utf8.RuneError {
						return dst, i, false
					}
					i += 6
				} else if r < 0 {
					return dst, i, false
				}
				dst = utf8.AppendRune(dst, r)
				i += 4
			default:
				return dst, i, false
			}
			i += 2
		case c < 0x20:
			return dst, i, false
		default:
			r, size := utf8.DecodeRune(src[i:])
			if r == utf8.RuneError && size == 1 {
				return dst, i, false
			}
			dst = append(dst, src[i:i+size]...)
			i += size
		}
	}
}

// hex4 decodes the four hex digits at src[i:], or returns -1.
func hex4(src []byte, i int) rune {
	if i+4 > len(src) {
		return -1
	}
	var r rune
	for _, c := range src[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// runBatch validates the documents from their bytes with
// StreamValidator.ValidateBatchContext. The outcome counts the invalid
// documents, or is a 504 when the context expired mid-batch.
func runBatch(ctx context.Context, sv *validator.StreamValidator, docs [][]byte) ([]batchResult, outcome) {
	verdicts, err := sv.ValidateBatchContext(ctx, docs)
	if err != nil {
		return nil, outcome{code: http.StatusGatewayTimeout, errMsg: "request deadline exceeded"}
	}
	results := make([]batchResult, len(verdicts))
	var out outcome
	for i, res := range verdicts {
		results[i] = batchResult{Valid: res.OK(), Violations: violationsOf(res)}
		if !res.OK() {
			out.invalid++
		}
	}
	return results, out
}
