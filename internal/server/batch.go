package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/dom"
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
// amortizes it the way validator.ValidateBatch already does in-process.
// Inside the slot the documents fan out across the validator's worker
// pool, so a batch uses the cores a single document cannot.
//
// The per-document verdict contract matches /v1/validate: a malformed
// document is valid:false with the parse error as its violation, never a
// request-level error. Request-level failures are the transport ones:
// unknown schema (404), malformed JSON or an empty/oversized set (400),
// body over the cap (413), shed (429), deadline (504).
func (s *Server) handleValidateBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("schema")
	entry, ok := s.reg.Get(name)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown schema %q", name)})
		return
	}
	series := s.metrics.Series(name, "batch")
	start := time.Now()
	var results []batchResult
	out, ok := s.withWorker(w, r, series, func(ctx context.Context, body requestBody) outcome {
		data, fail := readBody(ctx, body)
		if fail.code != 0 {
			return fail
		}
		var req batchRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return outcome{code: http.StatusBadRequest, errMsg: fmt.Sprintf("batch body is not JSON: %v", err)}
		}
		if len(req.Documents) == 0 {
			return outcome{code: http.StatusBadRequest, errMsg: "batch carries no documents"}
		}
		if len(req.Documents) > s.maxBatch {
			return outcome{code: http.StatusBadRequest,
				errMsg: fmt.Sprintf("batch carries %d documents, limit is %d", len(req.Documents), s.maxBatch)}
		}
		results = s.runBatch(ctx, entry.Validator, req.Documents)
		if results == nil {
			return outcome{code: http.StatusGatewayTimeout, errMsg: "request deadline exceeded"}
		}
		return outcome{}
	})
	if !ok {
		return
	}
	if out.code != 0 {
		series.Errors.Inc()
		s.writeJSON(w, out.code, errorResponse{Error: out.errMsg})
		return
	}
	series.Requests.Inc()
	series.Latency.Observe(time.Since(start))
	resp := batchResponse{
		Schema:        entry.Name,
		SchemaVersion: entry.Version,
		Count:         len(results),
		Results:       results,
		ElapsedNs:     int64(time.Since(start)),
	}
	for _, res := range results {
		if res.Valid {
			resp.Valid++
		} else {
			resp.Invalid++
		}
	}
	// Invalid meters documents, not requests: a batch of 100 with 3 bad
	// documents moves the series by 3, the same load 100 per-doc requests
	// would have produced.
	series.Invalid.Add(int64(resp.Invalid))
	s.writeJSON(w, http.StatusOK, resp)
}

// runBatch parses the documents and fans them through the validator's
// batch worker pool. Malformed documents get their parse error as the
// verdict (per-document parity with /v1/validate) without occupying a
// pool slot. A nil return means the context expired mid-batch.
func (s *Server) runBatch(ctx context.Context, v *validator.Validator, sources []string) []batchResult {
	results := make([]batchResult, len(sources))
	docs := make([]*dom.Document, 0, len(sources))
	docIdx := make([]int, 0, len(sources))
	for i, src := range sources {
		doc, perr := v.Parse([]byte(src))
		if perr != nil {
			results[i] = batchResult{Violations: []violationJSON{{Path: "/", Msg: perr.Error()}}}
			continue
		}
		docs = append(docs, doc)
		docIdx = append(docIdx, i)
	}
	verdicts, err := v.ValidateBatchContext(ctx, docs)
	for _, doc := range docs {
		doc.Release()
	}
	if err != nil {
		return nil
	}
	for j, res := range verdicts {
		br := batchResult{Valid: res.OK()}
		for _, viol := range res.Violations {
			br.Violations = append(br.Violations, violationJSON{Path: viol.Path, Msg: viol.Msg})
		}
		results[docIdx[j]] = br
	}
	return results
}
