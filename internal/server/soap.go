package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/soap"
)

// RegisterSOAP mounts a SOAP service at POST /v1/soap/{name} (envelope
// dispatch) and GET /v1/soap/{name} (WSDL echo). Must be called before
// the handler serves traffic; a second service with the same name
// replaces the first. The name space of routed services is fixed by
// configuration, so — as with schemas — metrics series exist only for
// registered names, never for probes.
func (s *Server) RegisterSOAP(svc *soap.Service) {
	s.soapSvcs[svc.Name()] = svc
}

// handleSOAPWSDL answers GET /v1/soap/{service} with the service
// description the endpoint was built from, byte-identical to the source
// document, so clients can generate stubs against exactly what the
// server dispatches.
func (s *Server) handleSOAPWSDL(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("service")
	svc, ok := s.soapSvcs[name]
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown SOAP service %q", name)})
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(svc.WSDL()) //nolint:errcheck // client gone; nothing to do
}

// handleSOAP answers POST /v1/soap/{service}: the body is a SOAP 1.1 or
// 1.2 envelope, dispatched on its body root element through the service's
// operation table, behind the same admission and deadline as the
// validation endpoints (admit).
//
// Response contract: every envelope that reaches dispatch is answered
// with a SOAP envelope — success or Fault — in the request's SOAP
// version; schema-invalid requests fault with one detail entry per
// violation and never surface as a 500. Only transport-layer failures
// answer JSON like the rest of the service: unknown service (404), body
// over the cap (413), shed load (429), deadline (504).
func (s *Server) handleSOAP(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("service")
	svc, ok := s.soapSvcs[name]
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown SOAP service %q", name)})
		return
	}
	series := s.metrics.Series("soap:"+name, "service")
	start := time.Now()
	var resp *soap.Response
	if _, ok := s.admit(w, r, series, func(ctx context.Context, body *requestBody) outcome {
		data, fail := readBody(ctx, body)
		if fail.code != 0 {
			return fail
		}
		resp = svc.Handle(ctx, data, r.Header.Get("SOAPAction"))
		return outcome{}
	}); !ok {
		return
	}
	// Per-operation series: requests that never resolved to an operation
	// (malformed envelopes, unknown body roots) meter under "envelope" so
	// the operation key space stays bounded by the WSDL.
	opKey := "envelope"
	if resp.Operation != "" {
		opKey = "op:" + resp.Operation
	}
	opSeries := s.metrics.Series("soap:"+name, opKey)
	opSeries.Requests.Inc()
	opSeries.Latency.Observe(time.Since(start))
	if resp.Faulted {
		opSeries.Invalid.Inc()
	}
	w.Header().Set("Content-Type", resp.ContentType)
	w.WriteHeader(resp.Status)
	w.Write(resp.Body) //nolint:errcheck // client gone; nothing to do
}
