package bind

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/schemas"
	"repro/internal/wml"
	"repro/internal/xsd"
)

// toAny converts the value at entry i to what encoding/json decodes with
// UseNumber: maps (a repeated key's last value winning), slices, strings,
// json.Number, bools and nil.
func (t *jsonTape) toAny(i int) any {
	switch t.kind(i) {
	case '{':
		m := map[string]any{}
		for j, end := i+1, t.end(i); j < end; j = t.end(j + 1) {
			m[t.stringAt(j)] = t.toAny(j + 1)
		}
		return m
	case '[':
		s := []any{}
		for j, end := i+1, t.end(i); j < end; j = t.end(j) {
			s = append(s, t.toAny(j))
		}
		return s
	case '"':
		return t.stringAt(i)
	case 't':
		return true
	case 'f':
		return false
	case 'n':
		return nil
	default:
		return json.Number(t.text(i))
	}
}

// nilXSD gives the corpus a "$nil" key: an element with an attribute and
// xsi:nil projects as an object.
const nilXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="n"><xsd:complexType><xsd:sequence>
    <xsd:element name="x" nillable="true" minOccurs="0" maxOccurs="unbounded"><xsd:complexType><xsd:simpleContent>
      <xsd:extension base="xsd:int"><xsd:attribute name="a" type="xsd:string"/></xsd:extension>
    </xsd:simpleContent></xsd:complexType></xsd:element>
  </xsd:sequence></xsd:complexType></xsd:element>
</xsd:schema>`

// mixedXSD is a mixed type whose one admissible child is b.
const mixedXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="P" mixed="true">
    <xsd:choice minOccurs="0" maxOccurs="unbounded"><xsd:element name="b" type="xsd:string"/></xsd:choice>
    <xsd:attribute name="align" type="xsd:string"/>
  </xsd:complexType>
  <xsd:element name="p" type="P"/>
</xsd:schema>`

// bundledDocs are the documents the JSON fuzzers start from: the bundled
// schemas' attributes, defaults, $type, substitutes, $any and $raw, mixed
// content, namespaces and $nil.
var bundledDocs = []struct{ xsd, doc string }{
	{schemas.PurchaseOrderXSD, schemas.PurchaseOrderDoc},
	{wml.Schema, `<wml><card id="c1" title="T&amp;&quot;"><p align="left">Hello <b>bold</b> and <a href="http://example.org/?a=1&amp;b=2" title="t">link</a> tail</p></card></wml>`},
	{schemas.NamespacedOrderXSD, `<order xmlns="urn:example:po" priority="2"><id>7</id><note>n</note></order>`},
	{schemas.AddressDerivationXSD, `<address xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="USAddress"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></address>`},
	{schemas.AddressDerivationXSD, `<commentBlock><shipComment>a</shipComment><comment>b</comment><customerComment>c</customerComment></commentBlock>`},
	{schemas.WildcardEnvelopeXSD, schemas.WildcardEnvelopeDoc},
	{nilXSD, `<n xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"><x a="1" xsi:nil="true"/><x>2</x><x xsi:nil="true"/></n>`},
	{mixedXSD, `<p align="c">one <b>bold</b> two</p>`},
}

// bundledJSON returns a binder per bundled document and the document's
// canonical JSON.
func bundledJSON(tb testing.TB) ([]*Binder, [][]byte) {
	tb.Helper()
	var binders []*Binder
	var docs [][]byte
	for _, bd := range bundledDocs {
		schema, err := xsd.ParseString(bd.xsd, nil)
		if err != nil {
			tb.Fatal(err)
		}
		b := New(schema, nil)
		v, res := b.DecodeBytes([]byte(bd.doc))
		if v == nil {
			tb.Fatalf("decode %.40s: %v", bd.doc, res.Violations)
		}
		binders = append(binders, b)
		docs = append(docs, b.JSON(v))
	}
	return binders, docs
}

// rewriteJSON re-emits well-formed JSON with each object's members
// passed through members (key and value as written).
func rewriteJSON(tb testing.TB, src []byte, members func(kv [][2]string) [][2]string) []byte {
	tb.Helper()
	var t jsonTape
	if err := t.scan(string(src)); err != nil {
		tb.Fatal(err)
	}
	var emit func(dst []byte, i int) []byte
	emit = func(dst []byte, i int) []byte {
		switch t.kind(i) {
		case '{':
			var kv [][2]string
			for j, end := i+1, t.end(i); j < end; j = t.end(j + 1) {
				kv = append(kv, [2]string{t.src[t.ents[j].off : t.ents[j].next&^needsDecode], string(emit(nil, j+1))})
			}
			dst = append(dst, '{')
			for k, m := range members(kv) {
				if k > 0 {
					dst = append(dst, ',')
				}
				dst = append(append(append(dst, m[0]...), ':'), m[1]...)
			}
			return append(dst, '}')
		case '[':
			dst = append(dst, '[')
			for j, end := i+1, t.end(i); j < end; j = t.end(j) {
				if j > i+1 {
					dst = append(dst, ',')
				}
				dst = emit(dst, j)
			}
			return append(dst, ']')
		default:
			return append(dst, t.src[t.ents[i].off:t.ents[i].next&^needsDecode]...)
		}
	}
	return emit(nil, 0)
}

// jsonVariants derives the fuzz seeds from canonical JSON: members
// shuffled with "$type", "$element", "$nil" and "$raw" moved last, and
// every object's first key repeated ahead of it with another value.
func jsonVariants(tb testing.TB, js []byte) [][]byte {
	rng := rand.New(rand.NewSource(1))
	permuted := rewriteJSON(tb, js, func(kv [][2]string) [][2]string {
		rng.Shuffle(len(kv), func(i, j int) { kv[i], kv[j] = kv[j], kv[i] })
		var rest, meta [][2]string
		for _, m := range kv {
			switch m[0] {
			case `"$type"`, `"$element"`, `"$nil"`, `"$raw"`:
				meta = append(meta, m)
			default:
				rest = append(rest, m)
			}
		}
		return append(rest, meta...)
	})
	duplicated := rewriteJSON(tb, js, func(kv [][2]string) [][2]string {
		if len(kv) == 0 {
			return kv
		}
		return append([][2]string{{kv[0][0], `"dup"`}}, kv...)
	})
	return [][]byte{js, permuted, duplicated}
}

// oddJSON are purchase-order bodies with characters the reader decodes:
// markup, surrogate pairs, lone surrogates, invalid UTF-8 and an escaped
// key; trailing data; and nesting at and past the limit.
func oddJSON(po []byte) [][]byte {
	var out [][]byte
	for _, name := range []string{
		`"Alice <b>&amp; Smith"`,
		`"Alice 𝄞 \ud834\udd1e Smith"`,
		`"Alice \ud834 Smith"`,
		`"Alice \udd1e\ud834A Smith"`,
		"\"Alice \xff\xe2\x80 Smith\"",
		`"Alice <\"\\\/\b\f\n\r\t Smith"`,
	} {
		out = append(out, bytes.Replace(po, []byte(`"Alice Smith"`), []byte(name), 1))
	}
	out = append(out,
		bytes.Replace(po, []byte(`"comment":`), []byte(`"comm\u0065nt":`), 1),
		append(append([]byte{}, po...), "xyz"...),
		append(append([]byte{}, po...), `{"a":1}`...),
	)
	for _, depth := range []int{maxJSONDepth, maxJSONDepth + 1} {
		// The top-level object is the first level.
		nested := strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1)
		out = append(out, []byte(`{"$element":"purchaseOrder","comment":`+nested+`}`))
	}
	return out
}

// FuzzJSONReader holds the tape scan to encoding/json: it accepts
// exactly the bodies json.Valid accepts, and on those the tape reads as
// the value json.Unmarshal with UseNumber builds.
func FuzzJSONReader(f *testing.F) {
	_, docs := bundledJSON(f)
	for _, js := range docs {
		for _, v := range jsonVariants(f, js) {
			f.Add(v)
		}
	}
	for _, v := range oddJSON(docs[0]) {
		f.Add(v)
	}
	for _, s := range []string{``, ` `, `[]`, `{}`, ` {"a" : [1, -0.5E+3, 1e5, true, false, null, ""]} `, `[1,]`, `{"a":}`,
		`{"a" 1}`, `{,}`, `"\u00"`, `"\x"`, "\"\x01\"", `tru`, `nul`, `01`, `-`, `1.`, `1e`, ` 1 2`, `[1 2]`, `"`, `{"a":1`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tape jsonTape
		err := tape.scan(string(data))
		if valid := json.Valid(data); valid != (err == nil) {
			t.Fatalf("json.Valid %v, reader error %v", valid, err)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "bind: bad JSON: ") {
				t.Fatalf("error %q is not a bad-JSON error", err)
			}
			return
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var want any
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("encoding/json: %v", err)
		}
		if got := tape.toAny(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("tape reads\n  %#v\nencoding/json\n  %#v", got, want)
		}
	})
}

// TestFromJSONConcurrent has goroutines share one binder and the pool of
// decoders, each decoding different documents in turn: a decoder must
// carry nothing from one call into the next.
func TestFromJSONConcurrent(t *testing.T) {
	binders, docs := bundledJSON(t)
	want := make([][]byte, len(docs))
	for k, js := range docs {
		v, err := binders[k].FromJSON(js)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = Serialize(v)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w + i) % len(docs)
				v, err := binders[k].FromJSON(docs[k])
				if err != nil {
					t.Errorf("%s: %v", docs[k], err)
					return
				}
				if got := Serialize(v); !bytes.Equal(got, want[k]) {
					t.Errorf("goroutine %d, call %d: %s, want %s", w, i, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
