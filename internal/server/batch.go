package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

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
// amortizes it. Inside the slot the documents fan out across the stream
// validator's worker pool (StreamValidator.ValidateBatch), each validated
// from its bytes without a DOM, so a batch uses the cores a single
// document cannot.
//
// The per-document verdict contract matches /v1/validate: a malformed
// document is valid:false with the parse error as its violation, never a
// request-level error. Request-level failures are the transport ones:
// unknown schema (404), malformed JSON or an empty/oversized set (400),
// body over the cap (413), shed (429), deadline (504).
func (s *Server) handleValidateBatch(w http.ResponseWriter, r *http.Request) {
	var results []batchResult
	s.withWorker(w, r, "batch", func(ctx context.Context, entry *registry.Entry, body *requestBody) outcome {
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
		var out outcome
		results, out = runBatch(ctx, entry.Stream, req.Documents)
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

// runBatch validates the documents from their bytes through the stream
// validator's batch worker pool. The outcome counts the invalid
// documents, or is a 504 when the context expired mid-batch.
func runBatch(ctx context.Context, sv *validator.StreamValidator, docs []string) ([]batchResult, outcome) {
	srcs := make([][]byte, len(docs))
	for i, doc := range docs {
		srcs[i] = []byte(doc)
	}
	verdicts, err := sv.ValidateBatchContext(ctx, srcs)
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
