package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/schemas"
	"repro/internal/validator"
)

// TestBindEndpointsInterleaved sends /v1/decode, /v1/decode?stream=1 and
// /v1/encode requests from several goroutines at once, so scoped value
// trees of different requests are alive together and released in any
// order, and checks every response byte for byte against what the
// library's owned-tree calls give for the same body (decode responses
// up to their elapsed time).
func TestBindEndpointsInterleaved(t *testing.T) {
	ts, s := newTestServer(t, Config{})
	entry, ok := s.reg.Get("po")
	if !ok {
		t.Fatal("po not loaded")
	}
	b := entry.Binder

	item := schemas.PurchaseOrderDoc[strings.Index(schemas.PurchaseOrderDoc, "    <item "):strings.Index(schemas.PurchaseOrderDoc, "  </items>")]
	docs := []string{
		schemas.PurchaseOrderDoc,
		strings.Replace(schemas.PurchaseOrderDoc, "  </items>", strings.Repeat(item, 40)+"  </items>", 1),
		strings.Replace(schemas.PurchaseOrderDoc, "<quantity>1</quantity>", "<quantity>1000</quantity>", 1),
		strings.Replace(schemas.PurchaseOrderDoc, "<comment>Hurry", "<comment>&lt;b&gt; &amp;  ", 1),
		`<purchaseOrder><unclosed>`,
	}
	type call struct {
		path string
		body []byte
		code int
		want []byte // the body, or for decode its part before the elapsed time
	}
	var calls []call
	for _, doc := range docs {
		for _, mode := range []string{"decode-dom", "decode-stream"} {
			var r decodeResponse
			var js []byte
			if mode == "decode-dom" {
				v, res := b.DecodeBytes([]byte(doc))
				r = decodeResponse{Valid: res.OK(), Violations: violationsJSON(res.Violations)}
				if v != nil {
					js = b.JSON(v)
				}
			} else {
				v, res, err := b.DecodeStreamBytes([]byte(doc))
				if err != nil {
					t.Fatal(err)
				}
				r = decodeResponse{Valid: res.OK(), Violations: violationsJSON(res.Violations)}
				if v != nil {
					js = b.JSON(v)
				}
			}
			r.Schema, r.SchemaVersion, r.Mode, r.Data = "po", entry.Version, mode, js
			path := "/v1/decode/po"
			if mode == "decode-stream" {
				path += "?stream=1"
			}
			calls = append(calls, call{path, []byte(doc), http.StatusOK, beforeElapsed(t, encodeReference(t, r))})

			if mode != "decode-dom" || js == nil {
				continue
			}
			for _, body := range [][]byte{
				js,
				bytes.Replace(js, []byte(`"shipTo":`), []byte(`"shipTo":{"name":"x"},"x":`), 1),
				// A repeated key's last value wins: billTo goes missing.
				bytes.Replace(js, []byte(`"billTo":`), []byte(`"shipTo":`), 1),
			} {
				c := call{path: "/v1/encode/po", body: body}
				if v, err := b.FromJSON(body); err != nil {
					c.code, c.want = http.StatusBadRequest, errorBody(t, err)
				} else if xml, err := b.Marshal(v); err != nil {
					c.code, c.want = http.StatusUnprocessableEntity, errorBody(t, err)
				} else {
					c.code, c.want = http.StatusOK, xml
				}
				calls = append(calls, c)
			}
		}
	}
	codes := map[int]bool{}
	for _, c := range calls {
		codes[c.code] = true
	}
	if !codes[http.StatusOK] || !codes[http.StatusBadRequest] || !codes[http.StatusUnprocessableEntity] {
		t.Fatalf("the calls should cover 200, 400 and 422; they cover %v", codes)
	}

	const workers, rounds = 4, 6
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				for i := range calls {
					c := calls[(i*(w+1)+r)%len(calls)]
					resp, err := http.Post(ts.URL+c.path, "application/octet-stream", bytes.NewReader(c.body))
					if err != nil {
						t.Error(err)
						return
					}
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					if strings.HasPrefix(c.path, "/v1/decode/") && resp.StatusCode == http.StatusOK {
						got = beforeElapsed(t, got)
					}
					if resp.StatusCode != c.code || !bytes.Equal(got, c.want) {
						t.Errorf("%s of %.60q: %d\n  %s\nwant %d\n  %s", c.path, c.body, resp.StatusCode, got, c.code, c.want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// beforeElapsed cuts a /v1/decode body at its elapsed time, the one part
// that differs between two answers to one document.
func beforeElapsed(t *testing.T, body []byte) []byte {
	t.Helper()
	i := bytes.LastIndex(body, []byte(`,"elapsed_ns":`))
	if i < 0 {
		t.Errorf("no elapsed_ns in %s", body)
		return body
	}
	return body[:i]
}

func violationsJSON(vs []validator.Violation) []violationJSON {
	var out []violationJSON
	for _, v := range vs {
		out = append(out, violationJSON{Path: v.Path, Msg: v.Msg})
	}
	return out
}

// errorBody is the JSON error response carrying err.
func errorBody(t *testing.T, err error) []byte {
	t.Helper()
	body, jerr := json.Marshal(errorResponse{Error: err.Error()})
	if jerr != nil {
		t.Fatal(jerr)
	}
	return fmt.Appendf(nil, "%s\n", body)
}
