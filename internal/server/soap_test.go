package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/schemas"
	"repro/internal/soap"
	"repro/internal/wsdl"
)

// newSOAPServer mounts the Calc corpus service (with a real Add handler)
// on a test server.
func newSOAPServer(t *testing.T, cfg Config) (string, *Server) {
	t.Helper()
	ts, s := newTestServer(t, cfg)
	d, err := wsdl.Parse([]byte(schemas.CalcWSDL), nil)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := soap.NewService(d, "Calc")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("Add", func(_ context.Context, _ *bind.Value) (*bind.Value, error) {
		return svc.Binder().FromJSON([]byte(`{"$element":"AddResponse","sum":42}`))
	}); err != nil {
		t.Fatal(err)
	}
	s.RegisterSOAP(svc)
	return ts.URL, s
}

func postSOAP(t *testing.T, url, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/xml; charset=utf-8", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

const addEnvelope = `<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body><c:AddRequest xmlns:c="urn:calc"><c:a>40</c:a><c:b>2</c:b></c:AddRequest></e:Body></e:Envelope>`

func TestSOAPEndpoint(t *testing.T) {
	base, s := newSOAPServer(t, Config{})
	url := base + "/v1/soap/Calc"

	code, ctype, body := postSOAP(t, url, addEnvelope)
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if !strings.HasPrefix(ctype, "text/xml") {
		t.Errorf("content type %q", ctype)
	}
	if !strings.Contains(string(body), ">42<") {
		t.Errorf("response: %s", body)
	}

	// Schema-invalid request: a Fault with violations, 400 — never a 500.
	bad := strings.Replace(addEnvelope, "<c:a>40</c:a>", "<c:a>forty</c:a>", 1)
	code, _, body = postSOAP(t, url, bad)
	if code != 400 {
		t.Fatalf("invalid request: status %d: %s", code, body)
	}
	if !strings.Contains(string(body), "Fault") || !strings.Contains(string(body), "violation") {
		t.Errorf("fault body: %s", body)
	}

	// An envelope with a DOCTYPE is a Client fault, 400: SOAP forbids
	// document type declarations in messages.
	code, _, body = postSOAP(t, url, `<!DOCTYPE e:Envelope>`+addEnvelope)
	if code != 400 || !strings.Contains(string(body), "document type declaration") {
		t.Fatalf("DOCTYPE envelope: status %d: %s", code, body)
	}

	// Unimplemented operation: a Fault, 501.
	sub := strings.Replace(strings.Replace(addEnvelope, "AddRequest", "SubtractRequest", 2), "c:AddRequest", "c:SubtractRequest", 1)
	code, _, body = postSOAP(t, url, sub)
	if code != 501 || !strings.Contains(string(body), "Fault") {
		t.Fatalf("unimplemented op: status %d: %s", code, body)
	}

	// Unknown service: JSON 404 (transport-level, no envelope reached a
	// service).
	code, ctype, _ = postSOAP(t, base+"/v1/soap/Nope", addEnvelope)
	if code != 404 || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("unknown service: %d %s", code, ctype)
	}

	// Metrics: per-service/operation series appeared.
	snap := s.Metrics().Snapshot()
	found := map[string]bool{}
	for _, series := range snap.Series {
		if series.Schema == "soap:Calc" {
			found[series.Endpoint] = true
		}
	}
	if !found["op:Add"] || !found["op:Subtract"] {
		t.Errorf("per-operation series missing: %v", found)
	}
}

func TestSOAPWSDLEcho(t *testing.T) {
	base, _ := newSOAPServer(t, Config{})
	resp, err := http.Get(base + "/v1/soap/Calc")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if string(data) != schemas.CalcWSDL {
		t.Error("WSDL echo is not byte-identical to the source document")
	}
}

// TestSOAPBodyCap keeps the transport-level contract: an oversized
// envelope is a 413 before dispatch, like every other endpoint.
func TestSOAPBodyCap(t *testing.T) {
	base, _ := newSOAPServer(t, Config{MaxBodyBytes: 512})
	big := strings.Replace(addEnvelope, "<c:a>40</c:a>",
		"<c:a>40</c:a><!-- "+strings.Repeat("x", 2048)+" -->", 1)
	code, ctype, _ := postSOAP(t, base+"/v1/soap/Calc", big)
	if code != http.StatusRequestEntityTooLarge || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("oversized envelope: %d %s", code, ctype)
	}
}
