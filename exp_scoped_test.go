package repro

// E12 scoped-lifetime differential: the scoped entry points
// (DecodeBytesScoped, DecodeReaderScoped, FromJSONScoped) lend a tree
// whose memory goes back to pools when the callback returns. Their
// callbacks must see what the owning entry points return, byte for byte,
// also while other scoped trees are alive around them and after inner
// ones have been released.

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// scopedTargets is one binder per schema of the E12 corpus (the
// validation differential's schemas and the binding cases), with the
// corpus instances of each.
func scopedTargets(tb testing.TB) ([]*bind.Binder, [][]string) {
	tb.Helper()
	var binders []*bind.Binder
	var docs [][]string
	var srcs []string
	for _, tc := range append(append([]diffCase{}, diffCases...), bindCases...) {
		i := slices.Index(srcs, tc.xsdSrc)
		if i < 0 {
			schema, err := xsd.ParseString(tc.xsdSrc, nil)
			if err != nil {
				tb.Fatalf("%s: %v", tc.name, err)
			}
			i = len(binders)
			srcs = append(srcs, tc.xsdSrc)
			binders = append(binders, bind.New(schema, nil))
			docs = append(docs, nil)
		}
		for _, name := range sortedKeys(tc.instances) {
			docs[i] = append(docs[i], tc.instances[name])
		}
	}
	return binders, docs
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// errText is an error's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameViolations reports whether two verdicts are equal, violation for
// violation.
func sameViolations(a, b *validator.Result) bool {
	return a.OK() == b.OK() && slices.Equal(a.Violations, b.Violations)
}

// encoded is what FromJSON then Marshal make of one body: the XML, or
// the error of the step that failed.
type encoded struct {
	xml              []byte
	fromErr, marsErr string
}

func ownedEncode(b *bind.Binder, body []byte) encoded {
	v, err := b.FromJSON(body)
	if err != nil {
		return encoded{fromErr: err.Error()}
	}
	xml, err := b.Marshal(v)
	return encoded{xml: xml, marsErr: errText(err)}
}

// FuzzScopedBind decodes a document through the DOM and stream scoped
// calls, nested, and inside them runs FromJSON→AppendMarshal in scoped
// calls on a fuzzed JSON body and on the document's canonical JSON. Every
// verdict, error, JSON and XML byte is compared with the owned-tree
// entry points, and the outer trees are re-read after each inner scope
// has released its tree.
func FuzzScopedBind(f *testing.F) {
	binders, docs := scopedTargets(f)
	for i, b := range binders {
		for _, src := range docs[i] {
			js := ""
			if v, _ := b.DecodeBytes([]byte(src)); v != nil {
				js = string(b.JSON(v))
			}
			f.Add(uint8(i), src, js)
		}
	}
	for _, m := range poMutations {
		f.Add(uint8(0), m.xmlOutput, "")
	}
	// Not XML: a walk that hands over to a decoder must parse only the
	// document, after the prefix.
	prefix := []byte("<<")
	prefix = prefix[:len(prefix):len(prefix)]
	f.Fuzz(func(t *testing.T, which uint8, src, js string) {
		if len(src)+len(js) > 1<<14 {
			t.Skip("oversized input")
		}
		b := binders[int(which)%len(binders)]
		ctx := context.Background()

		domV, domRes := b.DecodeBytes([]byte(src))
		var domJSON, domXML []byte
		var domMarsErr string
		if domV != nil {
			domJSON = b.JSON(domV)
			var err error
			domXML, err = b.Marshal(domV)
			domMarsErr = errText(err)
		}
		streamV, streamRes, streamErr := b.DecodeReader(ctx, strings.NewReader(src))
		var streamJSON []byte
		if streamV != nil {
			streamJSON = b.JSON(streamV)
		}
		bodies := [][]byte{[]byte(js)}
		if domJSON != nil {
			bodies = append(bodies, domJSON)
		}
		want := make([]encoded, len(bodies))
		for i, body := range bodies {
			want[i] = ownedEncode(b, body)
		}

		jsonOf := func(v *bind.Value) []byte {
			if v == nil {
				return nil
			}
			return b.JSON(v)
		}
		calls := 0
		b.DecodeBytesScoped([]byte(src), func(v1 *bind.Value, res1 *validator.Result) {
			calls++
			if !sameViolations(res1, domRes) {
				t.Fatalf("DOM verdict: scoped %v, owned %v", res1.Violations, domRes.Violations)
			}
			if got := jsonOf(v1); !bytes.Equal(got, domJSON) {
				t.Fatalf("DOM JSON: scoped %s, owned %s", got, domJSON)
			}
			if v1 != nil {
				xml, err := b.AppendMarshal(nil, v1)
				if errText(err) != domMarsErr || !bytes.Equal(xml, domXML) {
					t.Fatalf("marshal of the DOM tree: scoped %q (%v), owned %q (%s)", xml, err, domXML, domMarsErr)
				}
			}
			err := b.DecodeReaderScoped(ctx, strings.NewReader(src), func(v2 *bind.Value, res2 *validator.Result) {
				calls++
				if !sameViolations(res2, streamRes) {
					t.Fatalf("stream verdict: scoped %v, owned %v", res2.Violations, streamRes.Violations)
				}
				if got := jsonOf(v2); !bytes.Equal(got, streamJSON) {
					t.Fatalf("stream JSON: scoped %s, owned %s", got, streamJSON)
				}
				for i, body := range bodies {
					var got encoded
					err := b.FromJSONScoped(body, func(v3 *bind.Value) {
						xml, err := b.AppendMarshal(prefix, v3)
						if !bytes.HasPrefix(xml, prefix) {
							t.Fatalf("AppendMarshal lost its prefix: %q", xml)
						}
						if err == nil {
							got.xml = xml[len(prefix):]
						}
						got.marsErr = errText(err)
					})
					got.fromErr = errText(err)
					if got.fromErr != want[i].fromErr || got.marsErr != want[i].marsErr || !bytes.Equal(got.xml, want[i].xml) {
						t.Fatalf("encode of %q:\n  scoped %q, FromJSON error %q, Marshal error %q\n  owned  %q, FromJSON error %q, Marshal error %q",
							body, got.xml, got.fromErr, got.marsErr, want[i].xml, want[i].fromErr, want[i].marsErr)
					}
				}
				if got := jsonOf(v2); !bytes.Equal(got, streamJSON) {
					t.Fatalf("stream tree changed under inner scopes: %s, want %s", got, streamJSON)
				}
				if got := jsonOf(v1); !bytes.Equal(got, domJSON) {
					t.Fatalf("DOM tree changed under inner scopes: %s, want %s", got, domJSON)
				}
			})
			if errText(err) != errText(streamErr) {
				t.Fatalf("stream error: scoped %v, owned %v", err, streamErr)
			}
			if got := jsonOf(v1); !bytes.Equal(got, domJSON) {
				t.Fatalf("DOM tree changed after the stream scope: %s, want %s", got, domJSON)
			}
		})
		wantCalls := 2
		if streamErr != nil {
			wantCalls = 1
		}
		if calls != wantCalls {
			t.Fatalf("%d callbacks, want %d", calls, wantCalls)
		}
	})
}
