package bind

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/schemas"
	"repro/internal/validator"
)

// raceEnabled reports a build with the race detector (race_test.go), where
// sync.Pool drops a share of what it is given and allocation counts mean
// nothing.
var raceEnabled bool

// bytesPerCall is what one call of f allocates, averaged over n calls
// after n warming ones.
func bytesPerCall(n int, f func()) uint64 {
	for range n {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestDecodeBytesReleasesDOM bounds what steady-state calls allocate when
// they parse a DOM that nothing keeps: DecodeBytes of the primer's order
// (37,211 bytes per call when its DOM was left to the collector, 11,719
// once it goes back to the dom pools), and FromJSON of four $raw
// fragments, each parsed for its name (47,086 and 8,512 bytes).
func TestDecodeBytesReleasesDOM(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	b, _ := mustDecode(t, schemas.PurchaseOrderXSD, schemas.PurchaseOrderDoc)
	src := []byte(schemas.PurchaseOrderDoc)
	if n := bytesPerCall(200, func() {
		if v, res := b.DecodeBytes(src); v == nil {
			t.Fatal(res.Violations)
		}
	}); n > 20000 {
		t.Errorf("DecodeBytes: %d bytes per call, want at most 20000", n)
	}

	wb, wv := mustDecode(t, schemas.WildcardEnvelopeXSD,
		`<envelope><a><b/><c/><d/></a><e><f/><g/></e><h/><i><j/></i></envelope>`)
	js := wb.JSON(wv)
	if n := bytesPerCall(200, func() {
		if _, err := wb.FromJSON(js); err != nil {
			t.Fatal(err)
		}
	}); n > 20000 {
		t.Errorf("FromJSON of four raw fragments: %d bytes per call, want at most 20000", n)
	}
}

// TestScopedTreeReleased checks the scoped entry points' contract: the
// callback sees the tree the owning entry point returns, and when it
// returns the tree's memory is zeroed on its way back to the pools.
func TestScopedTreeReleased(t *testing.T) {
	b, owned := mustDecode(t, schemas.PurchaseOrderXSD, schemas.PurchaseOrderDoc)
	want := b.JSON(owned)
	src := []byte(schemas.PurchaseOrderDoc)

	var kept *Value
	var keptAttrs []Attr
	var keptKids []*Value
	keep := func(label string, v *Value) {
		t.Helper()
		if v == nil {
			t.Fatalf("%s: no value", label)
		}
		if got := b.JSON(v); !bytes.Equal(got, want) {
			t.Fatalf("%s: JSON\n  %s\nwant\n  %s", label, got, want)
		}
		kept, keptAttrs, keptKids = v, v.Attrs, v.Children
	}
	released := func(label string) {
		t.Helper()
		if kept.Kind != 0 || !kept.Name.IsZero() || kept.Attrs != nil || kept.Children != nil || kept.typ != nil {
			t.Errorf("%s: root value not zeroed after the callback: %+v", label, *kept)
		}
		for i, a := range keptAttrs {
			if a != (Attr{}) {
				t.Errorf("%s: attribute %d not zeroed: %+v", label, i, a)
			}
		}
		for i, c := range keptKids {
			if c != nil {
				t.Errorf("%s: child %d not zeroed", label, i)
			}
		}
	}

	b.DecodeBytesScoped(src, func(v *Value, res *validator.Result) {
		if !res.OK() {
			t.Fatal(res.Violations)
		}
		keep("DecodeBytesScoped", v)
	})
	released("DecodeBytesScoped")

	err := b.DecodeReaderScoped(context.Background(), bytes.NewReader(src), func(v *Value, res *validator.Result) {
		keep("DecodeReaderScoped", v)
	})
	if err != nil {
		t.Fatal(err)
	}
	released("DecodeReaderScoped")

	if err := b.FromJSONScoped(want, func(v *Value) { keep("FromJSONScoped", v) }); err != nil {
		t.Fatal(err)
	}
	released("FromJSONScoped")

	called := false
	if err := b.FromJSONScoped([]byte(`{"$element":"nope"}`), func(*Value) { called = true }); err == nil || called {
		t.Errorf("FromJSONScoped of an unknown element: err=%v, callback called=%v", err, called)
	}
}

// TestAppendMarshalKeepsPrefix checks that AppendMarshal writes after
// what dst holds, also when the walk hands the token stream to a decoder
// over its output (a raw fragment), and that its errors, positions
// included, are Marshal's.
func TestAppendMarshalKeepsPrefix(t *testing.T) {
	b, v := mustDecode(t, schemas.WildcardEnvelopeXSD, schemas.WildcardEnvelopeDoc)
	want, err := b.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("<<not a document>>")
	got, err := b.AppendMarshal(prefix, v)
	if err != nil || !bytes.Equal(got, append(prefix[:len(prefix):len(prefix)], want...)) {
		t.Fatalf("AppendMarshal: %v\n  %s\nwant the prefix and\n  %s", err, got, want)
	}

	var raw *Value
	for _, c := range v.Children {
		if c.Kind == KindRaw {
			raw = c
		}
	}
	raw.Raw = strings.Replace(raw.Raw, "</unknown>", "</unknwn>", 1)
	_, werr := b.Marshal(v)
	got, err = b.AppendMarshal(prefix, v)
	if werr == nil || err == nil || err.Error() != werr.Error() || !bytes.Equal(got, prefix) {
		t.Errorf("malformed raw fragment: AppendMarshal %q, %v; Marshal error %v", got, err, werr)
	}
}
