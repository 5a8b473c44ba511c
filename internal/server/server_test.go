package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/schemas"
)

// newTestServer boots a registry over a temp dir holding the paper's
// purchase-order schema and mounts the service on httptest.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "po.xsd"), []byte(schemas.PurchaseOrderXSD), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(dir, nil)
	if _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// validateResponse is a /v1/validate body as a client reads it: the
// members of a decode response, without data.
type validateResponse = decodeResponse

func postDoc(t *testing.T, url, doc string) (int, validateResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/xml", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr validateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, vr
}

func TestValidateEndpoints(t *testing.T) {
	ts, s := newTestServer(t, Config{})
	invalidDoc := strings.Replace(schemas.PurchaseOrderDoc, "<quantity>1</quantity>", "<quantity>9999</quantity>", 1)

	for _, mode := range []string{"dom", "stream"} {
		url := ts.URL + "/v1/validate/po"
		if mode == "stream" {
			url += "?stream=1"
		}
		t.Run(mode, func(t *testing.T) {
			code, vr := postDoc(t, url, schemas.PurchaseOrderDoc)
			if code != http.StatusOK || !vr.Valid {
				t.Fatalf("valid doc: code=%d resp=%+v", code, vr)
			}
			if vr.Schema != "po" || vr.SchemaVersion != 1 || vr.Mode != mode {
				t.Errorf("response metadata wrong: %+v", vr)
			}
			code, vr = postDoc(t, url, invalidDoc)
			if code != http.StatusOK || vr.Valid || len(vr.Violations) == 0 {
				t.Fatalf("invalid doc: code=%d resp=%+v", code, vr)
			}
			if !strings.Contains(vr.Violations[0].Path, "quantity") {
				t.Errorf("violation path %q does not name the quantity element", vr.Violations[0].Path)
			}
		})
	}

	t.Run("malformed is a verdict", func(t *testing.T) {
		code, vr := postDoc(t, ts.URL+"/v1/validate/po", "<purchaseOrder><unclosed>")
		if code != http.StatusOK || vr.Valid || len(vr.Violations) != 1 {
			t.Fatalf("malformed doc: code=%d resp=%+v", code, vr)
		}
	})

	t.Run("unknown schema 404", func(t *testing.T) {
		code, _ := postDoc(t, ts.URL+"/v1/validate/nosuch", schemas.PurchaseOrderDoc)
		if code != http.StatusNotFound {
			t.Fatalf("code = %d, want 404", code)
		}
	})

	t.Run("schemas listing", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/schemas")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr schemasResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Schemas) != 1 || sr.Schemas[0].Name != "po" || sr.Schemas[0].Version != 1 {
			t.Fatalf("schemas = %+v", sr)
		}
	})

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d", resp.StatusCode)
		}
	})

	t.Run("metrics match driven load", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap obs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		series := map[string]obs.SeriesSnapshot{}
		for _, ss := range snap.Series {
			series[ss.Schema+"/"+ss.Endpoint] = ss
		}
		// dom: valid + invalid + malformed = 3 requests, 2 invalid.
		if d := series["po/dom"]; d.Requests != 3 || d.Invalid != 2 || d.Errors != 0 {
			t.Errorf("po/dom series = %+v, want requests=3 invalid=2", d)
		}
		// stream: valid + invalid = 2 requests, 1 invalid.
		if st := series["po/stream"]; st.Requests != 2 || st.Invalid != 1 {
			t.Errorf("po/stream series = %+v, want requests=2 invalid=1", st)
		}
		if d := series["po/dom"]; d.Latency.Count != 3 || d.Latency.P99Ns <= 0 {
			t.Errorf("po/dom latency histogram empty: %+v", d.Latency)
		}
		// The unknown-schema probe must not have minted a series.
		for key := range series {
			if strings.HasPrefix(key, "nosuch/") {
				t.Errorf("unknown schema leaked into metrics: %s", key)
			}
		}
		if s.Metrics().InFlight.Load() != 0 {
			t.Errorf("in-flight gauge nonzero at rest")
		}
	})
}

// TestSheddingUnderConcurrencyLimit proves the limiter: with one slot, a
// stream request parked on a slow body occupies it, the next arrival is
// shed with 429 + Retry-After, and the parked request still completes
// with a correct verdict — zero failed in-flight validations.
func TestSheddingUnderConcurrencyLimit(t *testing.T) {
	ts, s := newTestServer(t, Config{MaxConcurrent: 1})

	pr, pw := io.Pipe()
	type result struct {
		code int
		vr   validateResponse
	}
	firstDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/validate/po?stream=1", "application/xml", pr)
		if err != nil {
			firstDone <- result{code: -1}
			return
		}
		defer resp.Body.Close()
		var vr validateResponse
		json.NewDecoder(resp.Body).Decode(&vr) //nolint:errcheck
		firstDone <- result{code: resp.StatusCode, vr: vr}
	}()

	// Feed a prefix, then wait until the request occupies the only slot.
	doc := schemas.PurchaseOrderDoc
	if _, err := pw.Write([]byte(doc[:80])); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().InFlight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the validation slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Second arrival: must be shed, not queued.
	resp, err := http.Post(ts.URL+"/v1/validate/po", "application/xml", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request code = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// Unpark the first request: it must finish with a clean verdict.
	if _, err := pw.Write([]byte(doc[80:])); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	first := <-firstDone
	if first.code != http.StatusOK || !first.vr.Valid {
		t.Fatalf("in-flight request failed during shedding: code=%d resp=%+v", first.code, first.vr)
	}

	snap := s.Metrics().Snapshot()
	var shed, requests int64
	for _, ss := range snap.Series {
		shed += ss.Shed
		requests += ss.Requests
	}
	if shed != 1 || requests != 1 {
		t.Errorf("metrics after shedding: shed=%d requests=%d, want 1/1", shed, requests)
	}
}

// TestDeadlineAnswers504 proves a stalled client cannot hold a handler
// forever, on every endpoint that reads a body: the connection's read
// deadline fails the parked body read at the request deadline, the answer
// is a typed 504, and the slot is free by the time it arrives.
func TestDeadlineAnswers504(t *testing.T) {
	ts, s := newTestServer(t, Config{RequestTimeout: 150 * time.Millisecond, MaxConcurrent: 1})
	batch, _ := json.Marshal(batchRequest{Documents: []string{schemas.PurchaseOrderDoc}})
	for _, tc := range []struct{ path, body string }{
		{"/v1/validate/po", schemas.PurchaseOrderDoc},
		{"/v1/validate/po?stream=1", schemas.PurchaseOrderDoc},
		{"/v1/validate-batch/po", string(batch)},
		{"/v1/decode/po", schemas.PurchaseOrderDoc},
		{"/v1/decode/po?stream=1", schemas.PurchaseOrderDoc},
		{"/v1/encode/po", `{"$element":"purchaseOrder","@orderDate":"1999-10-20","shipTo":`},
	} {
		t.Run(tc.path, func(t *testing.T) {
			pr, pw := io.Pipe()
			defer pw.Close()
			// Feed a prefix so the request (headers + first chunk) reaches
			// the server, then stall: the handler must answer at its
			// deadline, not wait for the body.
			go pw.Write([]byte(tc.body[:60])) //nolint:errcheck
			resp, err := http.Post(ts.URL+tc.path, "application/octet-stream", pr)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); resp.StatusCode != http.StatusGatewayTimeout || err != nil || er.Error == "" {
				t.Fatalf("code = %d, body error %q (%v), want a typed 504", resp.StatusCode, er.Error, err)
			}
			if n := s.Metrics().InFlight.Load(); n != 0 {
				t.Fatalf("in-flight gauge %d after the 504, want 0", n)
			}
		})
	}
}

// keepAliveConn is one client connection that carries requests one after
// another, as a keep-alive client does.
type keepAliveConn struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialKeepAlive(t *testing.T, ts *httptest.Server) *keepAliveConn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &keepAliveConn{t: t, conn: conn, r: bufio.NewReader(conn)}
}

// post sends one request on the connection and reads its answer.
func (c *keepAliveConn) post(path, body string) (int, []byte) {
	c.t.Helper()
	if _, err := fmt.Fprintf(c.conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", path, len(body), body); err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestKeepAliveOutlivesDeadline checks that the read deadline a request
// arms does not outlive it: a keep-alive connection that sits idle past
// RequestTimeout still serves its next request, and so does one whose
// last request ran past its deadline after its body had been read.
func TestKeepAliveOutlivesDeadline(t *testing.T) {
	ts, s := newTestServer(t, Config{RequestTimeout: 100 * time.Millisecond})
	c := dialKeepAlive(t, ts)
	for i := 0; i < 2; i++ {
		if code, body := c.post("/v1/validate/po", schemas.PurchaseOrderDoc); code != http.StatusOK {
			t.Fatalf("request %d: code %d: %s", i, code, body)
		}
		time.Sleep(250 * time.Millisecond)
	}

	// Each document expands an internal-subset entity into a million
	// characters, so the batch is read at once and runs past its deadline.
	ents := `<!ENTITY e0 "xxxxxxxxxx">`
	for i := 1; i <= 5; i++ {
		ents += fmt.Sprintf(`<!ENTITY e%d "%s">`, i, strings.Repeat(fmt.Sprintf("&e%d;", i-1), 10))
	}
	doc := strings.Replace(schemas.PurchaseOrderDoc, `<?xml version="1.0"?>`,
		`<?xml version="1.0"?><!DOCTYPE purchaseOrder [`+ents+`]>`, 1)
	doc = strings.Replace(doc, "<comment>Hurry, my lawn is going wild</comment>", "<comment>&e5;</comment>", 1)
	docs := make([]string, 16)
	for i := range docs {
		docs[i] = doc
	}
	batch, _ := json.Marshal(batchRequest{Documents: docs})
	if code, body := c.post("/v1/validate-batch/po", string(batch)); code != http.StatusGatewayTimeout {
		t.Fatalf("batch past its deadline: code %d: %s", code, body)
	}
	if code, body := c.post("/v1/validate/po", schemas.PurchaseOrderDoc); code != http.StatusOK {
		t.Fatalf("request after a 504 on the same connection: code %d: %s", code, body)
	}
	if n := s.Metrics().InFlight.Load(); n != 0 {
		t.Fatalf("in-flight gauge %d at rest, want 0", n)
	}
}

// TestAdmitPanicAnswers500 runs a panicking step through admit: the
// request gets a typed 500 counted as an error, and its slot and the
// in-flight gauge are given back.
func TestAdmitPanicAnswers500(t *testing.T) {
	_, s := newTestServer(t, Config{MaxConcurrent: 1})
	series := s.Metrics().Series("po", "dom")
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/validate/po", strings.NewReader("<x/>"))
	_, ok := s.admit(rec, req, series, func(context.Context, *requestBody) outcome {
		panic("boom")
	})
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); ok || rec.Code != http.StatusInternalServerError || err != nil || !strings.Contains(er.Error, "boom") {
		t.Fatalf("panicking step: ok=%v code=%d body %q, want a typed 500", ok, rec.Code, rec.Body)
	}
	if n, held := s.Metrics().InFlight.Load(), len(s.sem); n != 0 || held != 0 {
		t.Fatalf("after the panic: in-flight %d, slots held %d, want 0 and 0", n, held)
	}
	if e := series.Errors.Load(); e != 1 {
		t.Fatalf("series errors = %d, want 1", e)
	}
	// The one slot is free: the next request runs.
	if _, ok := s.admit(httptest.NewRecorder(), req, series, func(context.Context, *requestBody) outcome {
		return outcome{}
	}); !ok {
		t.Fatal("request after the panic was not admitted")
	}
}

func TestBodyCap(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxBodyBytes: 1024})
	big := strings.Replace(schemas.PurchaseOrderDoc, "Hurry, my lawn is going wild",
		strings.Repeat("x", 4096), 1)
	for _, mode := range []string{"dom", "stream"} {
		url := ts.URL + "/v1/validate/po"
		if mode == "stream" {
			url += "?stream=1"
		}
		resp, err := http.Post(url, "application/xml", strings.NewReader(big))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: code = %d, want 413", mode, resp.StatusCode)
		}
	}
}

// TestSizedBodyRead checks the read sized from Content-Length: a length
// declared over the cap is refused at the cap without a buffer sized to
// the declaration, a body shorter than its declared length is read to its
// end, and one cut short on the wire is refused.
func TestSizedBodyRead(t *testing.T) {
	ts, s := newTestServer(t, Config{MaxBodyBytes: 1024})
	serve := func(body string, declared int64) (int, uint64) {
		req := httptest.NewRequest(http.MethodPost, "/v1/validate/po", strings.NewReader(body))
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		return rec.Code, after.TotalAlloc - before.TotalAlloc
	}
	big := strings.Replace(schemas.PurchaseOrderDoc, "Hurry, my lawn is going wild", strings.Repeat("x", 4096), 1)
	if code, alloc := serve(big, 16<<20); code != http.StatusRequestEntityTooLarge || alloc > 256<<10 {
		t.Errorf("16 MiB declared over a 1 KiB cap: code %d, %d bytes allocated; want 413 and at most 256 KiB", code, alloc)
	}
	if code, _ := serve(schemas.PurchaseOrderDoc, 1000); code != http.StatusOK {
		t.Errorf("body shorter than declared: code %d, want 200", code)
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/validate/po HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n%s", schemas.PurchaseOrderDoc)
	conn.(*net.TCPConn).CloseWrite() //nolint:errcheck
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The client's half-close also cancels the request, so the refusal
	// may read as the deadline's 504 rather than the read failure's 400.
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("body cut short on the wire: code %d, want 400 or 504", resp.StatusCode)
	}
}

// TestReloadVisibleThroughAPI drives a registry swap and checks the
// service surfaces the new version on the very next request.
func TestReloadVisibleThroughAPI(t *testing.T) {
	ts, s := newTestServer(t, Config{})
	reg := s.reg
	poPath := filepath.Join(reg.Dir(), "po.xsd")
	v2 := strings.Replace(schemas.PurchaseOrderXSD,
		`<xsd:element name="items" type="Items"/>`,
		`<xsd:element name="items" type="Items"/>
      <xsd:element name="priority" type="xsd:string" minOccurs="0"/>`, 1)
	if err := os.WriteFile(poPath, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	stamp := time.Now().Add(time.Minute)
	if err := os.Chtimes(poPath, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	code, vr := postDoc(t, ts.URL+"/v1/validate/po", schemas.PurchaseOrderDoc)
	if code != http.StatusOK || !vr.Valid || vr.SchemaVersion != 2 {
		t.Fatalf("after reload: code=%d resp=%+v, want valid at schema_version 2", code, vr)
	}
}

func TestHealthzDegradedWhenEmpty(t *testing.T) {
	reg := registry.New(t.TempDir(), nil)
	if _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Registry: reg}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty registry healthz = %d, want 503", resp.StatusCode)
	}
}

// TestParallelValidateMode drives ?parallel=1, the older spelling of
// ?stream=1, with a small document and a large one: both stream, with
// verdicts identical to the dom mode, and count in the stream series.
func TestParallelValidateMode(t *testing.T) {
	ts, s := newTestServer(t, Config{MaxBodyBytes: 64 << 20})
	url := ts.URL + "/v1/validate/po?parallel=1"

	code, vr := postDoc(t, url, schemas.PurchaseOrderDoc)
	if code != http.StatusOK || !vr.Valid || vr.Mode != "stream" {
		t.Fatalf("small valid doc: code=%d resp=%+v", code, vr)
	}

	// A >1 MiB order with seeded defects must agree with the dom mode
	// violation for violation.
	var sb strings.Builder
	sb.WriteString(`<purchaseOrder><shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo><billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo><items>`)
	for i := 0; i < 12000; i++ {
		qty := "1"
		if i%4000 == 1000 {
			qty = "bogus"
		}
		fmt.Fprintf(&sb, `<item partNum="%03d-AB"><productName>Widget</productName><quantity>%s</quantity><USPrice>9.95</USPrice></item>`, i%1000, qty)
	}
	sb.WriteString(`</items></purchaseOrder>`)
	big := sb.String()
	if len(big) < 1<<20 {
		t.Fatalf("test doc only %d bytes; want over 1 MiB", len(big))
	}
	codePar, vrPar := postDoc(t, url, big)
	codeDom, vrDom := postDoc(t, ts.URL+"/v1/validate/po", big)
	if codePar != http.StatusOK || codeDom != http.StatusOK {
		t.Fatalf("codes: parallel=%d dom=%d", codePar, codeDom)
	}
	if vrPar.Valid || len(vrPar.Violations) != len(vrDom.Violations) {
		t.Fatalf("verdicts diverged: parallel=%+v dom has %d violations", vrPar, len(vrDom.Violations))
	}
	for i := range vrPar.Violations {
		if vrPar.Violations[i] != vrDom.Violations[i] {
			t.Errorf("violation %d diverged: parallel=%+v dom=%+v", i, vrPar.Violations[i], vrDom.Violations[i])
		}
	}
	snap := s.Metrics().Snapshot()
	found := false
	for _, ss := range snap.Series {
		if ss.Schema == "po" && ss.Endpoint == "stream" {
			found = true
			if ss.Requests != 2 || ss.Invalid != 1 {
				t.Errorf("po/stream series = %+v, want requests=2 invalid=1", ss)
			}
		}
		if ss.Endpoint == "parallel" {
			t.Errorf("a parallel metrics series was minted: %+v", ss)
		}
	}
	if !found {
		t.Error("no po/stream metrics series minted")
	}
	// Both spellings at once stream too.
	code, vr = postDoc(t, ts.URL+"/v1/validate/po?stream=1&parallel=1", schemas.PurchaseOrderDoc)
	if code != http.StatusOK || vr.Mode != "stream" {
		t.Fatalf("stream precedence: code=%d mode=%q", code, vr.Mode)
	}
}
