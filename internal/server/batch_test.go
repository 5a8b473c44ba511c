package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/schemas"
)

func postBatch(t *testing.T, url string, docs []string) (int, batchResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(batchRequest{Documents: docs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("batch response not JSON: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, br, raw
}

func TestValidateBatch(t *testing.T) {
	m := &obs.Metrics{}
	ts, _ := newTestServer(t, Config{Metrics: m})
	url := ts.URL + "/v1/validate-batch/po"

	invalid := strings.Replace(schemas.PurchaseOrderDoc, "<quantity>1</quantity>", "<quantity>9999</quantity>", 1)
	code, br, raw := postBatch(t, url, []string{
		schemas.PurchaseOrderDoc, // valid
		invalid,                  // schema-invalid
		"<broken",                // malformed
		schemas.PurchaseOrderDoc, // valid
	})
	if code != http.StatusOK {
		t.Fatalf("batch answered %d: %s", code, raw)
	}
	if br.Count != 4 || br.Valid != 2 || br.Invalid != 2 {
		t.Fatalf("count/valid/invalid = %d/%d/%d, want 4/2/2", br.Count, br.Valid, br.Invalid)
	}
	if br.Schema != "po" || br.SchemaVersion != 1 {
		t.Fatalf("schema identity = %s v%d", br.Schema, br.SchemaVersion)
	}
	// Verdicts are index-aligned with the request.
	wantValid := []bool{true, false, false, true}
	for i, r := range br.Results {
		if r.Valid != wantValid[i] {
			t.Fatalf("results[%d].valid = %v, want %v (%+v)", i, r.Valid, wantValid[i], br.Results)
		}
	}
	// The malformed document's verdict carries its parse error, same
	// contract as /v1/validate.
	if len(br.Results[2].Violations) == 0 || br.Results[2].Violations[0].Path != "/" {
		t.Fatalf("malformed doc verdict = %+v, want a parse violation at /", br.Results[2])
	}
	// Invalid meters documents: one batch with two bad docs moves the
	// series by 2, and the whole batch is one request.
	series := m.Series("po", "batch")
	if got := series.Invalid.Load(); got != 2 {
		t.Fatalf("batch series Invalid = %d, want 2", got)
	}
	if got := series.Requests.Load(); got != 1 {
		t.Fatalf("batch series Requests = %d, want 1", got)
	}
}

func TestValidateBatchRequestErrors(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxBatchDocs: 4})

	code, _, _ := postBatch(t, ts.URL+"/v1/validate-batch/nosuch", []string{schemas.PurchaseOrderDoc})
	if code != http.StatusNotFound {
		t.Fatalf("unknown schema answered %d, want 404", code)
	}
	code, _, _ = postBatch(t, ts.URL+"/v1/validate-batch/po", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch answered %d, want 400", code)
	}
	docs := make([]string, 5)
	for i := range docs {
		docs[i] = schemas.PurchaseOrderDoc
	}
	code, _, _ = postBatch(t, ts.URL+"/v1/validate-batch/po", docs)
	if code != http.StatusBadRequest {
		t.Fatalf("over-limit batch answered %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/validate-batch/po", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-JSON batch answered %d, want 400", resp.StatusCode)
	}
}

func TestDrainingHealthz(t *testing.T) {
	ts, s := newTestServer(t, Config{})

	get := func() (int, healthResponse, string) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr healthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr, resp.Header.Get("Draining")
	}

	code, hr, _ := get()
	if code != http.StatusOK || hr.Status != "ok" || hr.Draining {
		t.Fatalf("healthy node: %d %+v", code, hr)
	}

	s.SetDraining(true)
	code, hr, hdr := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz answered %d, want 503", code)
	}
	if hr.Status != "draining" || !hr.Draining || hdr != "true" {
		t.Fatalf("draining healthz = %+v (Draining header %q)", hr, hdr)
	}
	// Draining refuses NEW health checks, not work: validation still
	// answers, because in-flight and already-routed requests must
	// complete during the drain notice.
	code, vr := postDoc(t, ts.URL+"/v1/validate/po", schemas.PurchaseOrderDoc)
	if code != http.StatusOK || !vr.Valid {
		t.Fatalf("validate during drain = %d valid=%v", code, vr.Valid)
	}

	s.SetDraining(false)
	if code, hr, _ := get(); code != http.StatusOK || hr.Draining {
		t.Fatalf("undrained healthz = %d %+v", code, hr)
	}
}

// TestJSONResponseFraming: every JSON answer is encoded whole before it
// is written, so it carries an exact Content-Length (no chunked framing)
// and a complete, newline-terminated JSON body — on verdicts and on
// errors alike. The many-violation verdict is larger than net/http's own
// pre-chunking buffer, so only the server's framing can size it.
func TestJSONResponseFraming(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	var bad strings.Builder
	bad.WriteString(`<purchaseOrder><shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></shipTo><billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo><items>`)
	for i := 0; i < 60; i++ {
		bad.WriteString(`<item partNum="123-AB"><productName>Widget</productName><quantity>bogus</quantity><USPrice>9.95</USPrice></item>`)
	}
	bad.WriteString(`</items></purchaseOrder>`)
	for _, tc := range []struct {
		path, doc string
		want      int
	}{
		{"/v1/validate/po", schemas.PurchaseOrderDoc, http.StatusOK},
		{"/v1/validate/po", bad.String(), http.StatusOK},
		{"/v1/validate/nosuch", schemas.PurchaseOrderDoc, http.StatusNotFound},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/xml", strings.NewReader(tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Fatalf("%s answered %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
		if !json.Valid(body) || !strings.HasSuffix(string(body), "\n") {
			t.Fatalf("%s body is not one newline-terminated JSON value: %q", tc.path, body)
		}
		if cl, want := resp.Header.Get("Content-Length"), fmt.Sprint(len(body)); cl != want {
			t.Fatalf("%s Content-Length = %q, body is %s bytes", tc.path, cl, want)
		}
		if tc.doc != schemas.PurchaseOrderDoc && len(body) <= 4096 {
			t.Fatalf("many-violation verdict is only %d bytes; too small to test framing", len(body))
		}
	}
}

// TestBatchMatchesValidate holds the batch endpoint to /v1/validate,
// document for document: each batch verdict carries the same valid flag
// and the same violation list as the DOM and the streaming single-document
// answers.
func TestBatchMatchesValidate(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	po := schemas.PurchaseOrderDoc
	docs := []string{
		po,
		strings.Replace(po, "<quantity>1</quantity>", "<quantity>9999</quantity>", 1),
		strings.Replace(po, `orderDate="1999-10-20"`, `orderDate="yesterday"`, 1),
		strings.Replace(po, "<city>Mill Valley</city>", "", 1),
		strings.Replace(po, "<zip>90952</zip>", "<zip>90952</zip><bogus/>", 1),
		strings.Replace(po, `partNum="872-AA"`, `partNum="872-aa" extra="1"`, 1),
		"<broken",
		"",
		strings.Replace(po, `<?xml version="1.0"?>`,
			`<?xml version="1.0"?><!DOCTYPE purchaseOrder [<!ENTITY city "Mill Valley">]>`, 1),
		strings.Replace(strings.Replace(po, `<?xml version="1.0"?>`,
			`<?xml version="1.0"?><!DOCTYPE purchaseOrder [<!ENTITY qty "lots">]>`, 1),
			"<quantity>1</quantity>", "<quantity>&qty;</quantity>", 1),
	}
	docs[8] = strings.Replace(docs[8], "<city>Mill Valley</city>", "<city>&city;</city>", 1)
	code, br, raw := postBatch(t, ts.URL+"/v1/validate-batch/po", docs)
	if code != http.StatusOK || len(br.Results) != len(docs) {
		t.Fatalf("batch answered %d with %d results: %s", code, len(br.Results), raw)
	}
	valid := 0
	for i, doc := range docs {
		got := br.Results[i]
		if got.Valid {
			valid++
		}
		for _, query := range []string{"", "?stream=1"} {
			code, vr := postDoc(t, ts.URL+"/v1/validate/po"+query, doc)
			if code != http.StatusOK {
				t.Fatalf("doc %d via /v1/validate%s answered %d", i, query, code)
			}
			if got.Valid != vr.Valid || fmt.Sprint(got.Violations) != fmt.Sprint(vr.Violations) {
				t.Errorf("doc %d: batch verdict %v %v, /v1/validate%s verdict %v %v",
					i, got.Valid, got.Violations, query, vr.Valid, vr.Violations)
			}
		}
	}
	if valid != 2 || br.Valid != 2 || br.Invalid != len(docs)-2 {
		t.Errorf("valid = %d (response %d/%d), want 2 valid documents: the original and its entity copy",
			valid, br.Valid, br.Invalid)
	}
}

// TestBatchDeadline: a batch whose deadline expires mid-batch answers
// 504 with a typed JSON error, and the batch series counts it as one
// error and no request. Each document is small on the wire but expands an
// internal-subset entity into 100,000 characters of text, so the body
// reads well inside the deadline and the validations run past it.
func TestBatchDeadline(t *testing.T) {
	m := &obs.Metrics{}
	ts, s := newTestServer(t, Config{Metrics: m, RequestTimeout: 10 * time.Millisecond, MaxBatchDocs: 16})
	ents := `<!ENTITY e0 "xxxxxxxxxx">`
	for i := 1; i <= 4; i++ {
		ents += fmt.Sprintf(`<!ENTITY e%d "%s">`, i, strings.Repeat(fmt.Sprintf("&e%d;", i-1), 10))
	}
	doc := strings.Replace(schemas.PurchaseOrderDoc, `<?xml version="1.0"?>`,
		`<?xml version="1.0"?><!DOCTYPE purchaseOrder [`+ents+`]>`, 1)
	doc = strings.Replace(doc, "<comment>Hurry, my lawn is going wild</comment>", "<comment>&e4;</comment>", 1)
	docs := make([]string, s.maxBatch)
	for i := range docs {
		docs[i] = doc
	}
	code, _, raw := postBatch(t, ts.URL+"/v1/validate-batch/po", docs)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("batch past its deadline answered %d, want 504: %s", code, raw)
	}
	var er errorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
		t.Fatalf("504 body is not a typed JSON error (%v): %s", err, raw)
	}
	series := m.Series("po", "batch")
	if e, r := series.Errors.Load(), series.Requests.Load(); e != 1 || r != 0 {
		t.Errorf("batch series errors/requests = %d/%d, want 1/0", e, r)
	}
}

// clientBatchBodies are bodies of the shape clients send: as encoding/json
// writes it (< and > escaped, surrogate pairs), spaced by hand, and with
// the escapes encoding/json does not write.
func clientBatchBodies() []string {
	marshal := func(docs ...string) string {
		b, _ := json.Marshal(batchRequest{Documents: docs})
		return string(b)
	}
	return []string{
		marshal(schemas.PurchaseOrderDoc, "<broken", ""),
		marshal("<a x=\"1\">&amp; \U0001D11E   é</a>", "<b/>"),
		"{ \"documents\" :\n[ \"<a/>\" ,\t\"<b/>\" ]\r}\n",
		`{"documents":["\"\\\/\b\f\n\r\t","éÉ𝄞\u0000"]}`,
	}
}

// batchBodySeeds are the seeds of FuzzBatchBody: the client bodies, and
// bodies the one-pass reader leaves to json.Unmarshal.
func batchBodySeeds() []string {
	return append(clientBatchBodies(),
		`{"documents":["\ud834"]}`,
		`{"documents":["\udd1e\ud834"]}`,
		`{"documents":["\ud834A"]}`,
		`{"documents":["\x"]}`,
		`{"documents":["\u12"]}`,
		`{"documents":["a`+"\x01"+`"]}`,
		`{"documents":["<a/>"],"documents":["<b/>"]}`,
		`{"Documents":["<a/>"]}`,
		`{"DOCUMENTS":["<a/>"]}`,
		`{"other":1,"documents":["<a/>"]}`,
		`{"documents":["<a/>"],"other":1}`,
		`{"documents":null}`,
		`{"documents":[null]}`,
		`{"documents":[]}`,
		`{"documents":[ ]}`,
		`null`,
		`{}`,
		`{"documents":["<a/>"]} x`,
		`{"documents":["<a/>"]}{}`,
		`{"documents":["<a/>",]}`,
		`{"documents":["<a/>" "<b/>"]}`,
		`{"documents":["<a/>"]`,
		`{"documents":["<a/>`,
		"{\"documents\":[\"\xff\"]}",
		"{\"documents\":[\"\xed\xa0\x80\"]}",
		"{\"documents\":[\"\xc3\"]}",
	)
}

// FuzzBatchBody holds the one-pass batch reader to json.Unmarshal: for any
// body, it either declines it or returns exactly the documents
// json.Unmarshal returns.
func FuzzBatchBody(f *testing.F) {
	for _, seed := range batchBodySeeds() {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		docs, ok := batchDocuments(body)
		if !ok {
			return
		}
		var req batchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("read %d documents from a body json.Unmarshal refuses (%v): %q", len(docs), err, body)
		}
		if len(docs) != len(req.Documents) {
			t.Fatalf("read %d documents, json.Unmarshal %d: %q", len(docs), len(req.Documents), body)
		}
		for i, doc := range docs {
			if string(doc) != req.Documents[i] {
				t.Fatalf("document %d: read %q, json.Unmarshal %q", i, doc, req.Documents[i])
			}
		}
	})
}

// TestBatchBodyOnePass checks that the one-pass reader, not json.Unmarshal,
// reads the bodies clients send: encoding/json's output, and the same
// shape spaced by hand or with escapes it does not write.
func TestBatchBodyOnePass(t *testing.T) {
	for _, body := range clientBatchBodies() {
		if _, ok := batchDocuments([]byte(body)); !ok {
			t.Errorf("declined %q", body)
		}
	}
}
