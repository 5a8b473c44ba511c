package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/schemas"
)

// encodeReference is how /v1/decode bodies were written before the
// envelope stopped re-scanning data: json.Encoder over the whole response.
func encodeReference(t *testing.T, r decodeResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeResponseBytes pins /v1/decode bodies byte for byte to
// json.Encoder's output: for responses built directly, with strings
// encoding/json escapes (<, >, &, U+2028, U+2029, control characters,
// invalid UTF-8), and for live answers of both decode modes and of both
// /v1/validate modes, whose verdicts are decode responses without data.
func TestDecodeResponseBytes(t *testing.T) {
	odd := "a<b>&c\u2028d\u2029e\"f\\g\x01\th\xffi\U0001D11E"
	for _, r := range []decodeResponse{
		// Data as Binder.JSON writes it: already compact and escaped.
		{Schema: "po", SchemaVersion: 3, Mode: "decode-dom", Valid: true, Data: json.RawMessage(`{"$element":"x","v":"\u003c\u2028"}`), ElapsedNs: 12345},
		{Schema: odd, SchemaVersion: 1, Mode: odd, Violations: []violationJSON{{Path: "/a", Msg: odd}, {Path: odd, Msg: ""}}, ElapsedNs: 1},
		{Schema: "po", Violations: []violationJSON{}},
		{},
	} {
		if got, want := r.appendJSON(nil), encodeReference(t, r); !bytes.Equal(got, want) {
			t.Errorf("body\n  %q\nwant\n  %q", got, want)
		}
	}

	ts, _ := newTestServer(t, Config{})
	comment := "<comment>Hurry &lt;b&gt; &amp; \u2028 \u2029 \"quoted\" \\ back</comment>"
	doc := strings.Replace(schemas.PurchaseOrderDoc, "<comment>Hurry, my lawn is going wild</comment>", comment, 1)
	invalid := strings.Replace(schemas.PurchaseOrderDoc, `partNum="872-AA"`, `partNum="&lt;&amp;&gt;"`, 1)
	for _, path := range []string{"/v1/decode/po", "/v1/decode/po?stream=1", "/v1/validate/po", "/v1/validate/po?stream=1"} {
		decode := strings.HasPrefix(path, "/v1/decode/")
		for _, src := range []string{doc, invalid} {
			resp, err := http.Post(ts.URL+path, "application/xml", strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var r decodeResponse
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatalf("%s: %v: %s", path, err, body)
			}
			if r.Valid != (src == doc) || (r.Valid && decode) != (len(r.Data) > 0) {
				t.Fatalf("%s: unexpected verdict: %s", path, body)
			}
			if want := encodeReference(t, r); !bytes.Equal(body, want) {
				t.Errorf("%s: body\n  %s\nwant\n  %s", path, body, want)
			}
			if resp.Header.Get("Content-Length") != "" && resp.ContentLength != int64(len(body)) {
				t.Errorf("%s: Content-Length %d for a %d-byte body", path, resp.ContentLength, len(body))
			}
		}
	}
}

// TestEncodeRejectsTrailingData checks that /v1/encode reads exactly one
// JSON value: data after it is bad JSON, a 400, not ignored.
func TestEncodeRejectsTrailingData(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	post := func(path, ctype string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	code, body := post("/v1/decode/po", "application/xml", []byte(schemas.PurchaseOrderDoc))
	var r decodeResponse
	if err := json.Unmarshal(body, &r); code != http.StatusOK || err != nil || len(r.Data) == 0 {
		t.Fatalf("decode: %d %v: %s", code, err, body)
	}
	if code, body := post("/v1/encode/po", "application/json", append(r.Data, " \n"...)); code != http.StatusOK {
		t.Fatalf("encode of the canonical JSON: %d: %s", code, body)
	}
	for _, tail := range []string{"xyz", `{"a":1}`} {
		code, body := post("/v1/encode/po", "application/json", append(append([]byte{}, r.Data...), tail...))
		var e errorResponse
		if err := json.Unmarshal(body, &e); code != http.StatusBadRequest || err != nil || !strings.HasPrefix(e.Error, "bind: bad JSON: ") {
			t.Errorf("canonical JSON + %q: %d %s, want a 400 with bad JSON", tail, code, body)
		}
	}
}
