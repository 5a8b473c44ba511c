package bind

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/contentmodel"
	"repro/internal/schemas"
	"repro/internal/xsd"
)

// TestFromJSONUnknownField checks that every key of a struct object must
// be a field's, "$any", "$element", "$type" or an attribute's.
func TestFromJSONUnknownField(t *testing.T) {
	b, v := mustDecode(t, schemas.PurchaseOrderXSD, schemas.PurchaseOrderDoc)
	js := string(b.JSON(v))
	if _, err := b.FromJSON([]byte(js)); err != nil {
		t.Fatalf("canonical JSON: %v", err)
	}
	for _, tc := range []struct{ name, json, want string }{
		{"top level", strings.Replace(js, `"comment":`, `"bogus":1,"comment":`, 1), `unknown field "bogus" for type PurchaseOrderType`},
		{"nested", strings.Replace(js, `"name":"Alice Smith"`, `"name":"Alice Smith","nayme":"x"`, 1), `unknown field "nayme" for type USAddress`},
		{"only unknown", `{"$element":"purchaseOrder","zzz":[]}`, `unknown field "zzz"`},
	} {
		if _, err := b.FromJSON([]byte(tc.json)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// orderChildrenReplay is the walk orderChildren replaced: for each next
// position it replays the chosen prefix on a fresh run once per pending
// child and takes the first the automaton admits. It is the reference
// the one-pass walk must match child for child.
func orderChildrenReplay(g *contentmodel.Glushkov, children []*Value) []*Value {
	pending := append([]*Value{}, children...)
	var order []*Value
	var prefix []contentmodel.Symbol
	for len(pending) > 0 {
		chosen := -1
		for i, c := range pending {
			r := g.Start()
			for _, s := range prefix {
				r.Step(s)
			}
			if _, merr := r.Step(contentmodel.Symbol{Space: c.Name.Space, Local: c.Name.Local}); merr == nil {
				chosen = i
				break
			}
		}
		if chosen < 0 {
			return children
		}
		order = append(order, pending[chosen])
		prefix = append(prefix, contentmodel.Symbol{Space: pending[chosen].Name.Space, Local: pending[chosen].Name.Local})
		pending = append(pending[:chosen], pending[chosen+1:]...)
	}
	return order
}

// TestOrderChildrenMatchesReplay holds the one-pass walk to the replaying
// one over random child lists, grouped by name as FromJSON builds them
// and shuffled, for interleaving, choice, optional and counted models.
func TestOrderChildrenMatchesReplay(t *testing.T) {
	const src = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="pairs"><xsd:complexType><xsd:sequence minOccurs="0" maxOccurs="unbounded">
    <xsd:element name="a" type="xsd:int"/><xsd:element name="b" type="xsd:int"/>
  </xsd:sequence></xsd:complexType></xsd:element>
  <xsd:element name="picks"><xsd:complexType><xsd:sequence minOccurs="0" maxOccurs="unbounded">
    <xsd:element name="a" type="xsd:int"/>
    <xsd:choice><xsd:element name="b" type="xsd:int"/><xsd:element name="c" type="xsd:int"/></xsd:choice>
  </xsd:sequence></xsd:complexType></xsd:element>
  <xsd:element name="runs"><xsd:complexType><xsd:sequence minOccurs="0" maxOccurs="unbounded">
    <xsd:element name="a" type="xsd:int" minOccurs="0"/><xsd:element name="b" type="xsd:int"/>
    <xsd:element name="c" type="xsd:int" minOccurs="0" maxOccurs="3"/>
  </xsd:sequence></xsd:complexType></xsd:element>
  <xsd:element name="fixed"><xsd:complexType><xsd:sequence>
    <xsd:element name="c" type="xsd:int"/><xsd:element name="a" type="xsd:int" maxOccurs="2"/>
    <xsd:element name="b" type="xsd:int" minOccurs="0"/>
  </xsd:sequence></xsd:complexType></xsd:element>
</xsd:schema>`
	schema, err := xsd.ParseString(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := New(schema, nil)
	names := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(1))
	for _, root := range []string{"pairs", "picks", "runs", "fixed"} {
		ct := schema.Elements[xsd.QName{Local: root}].Type.(*xsd.ComplexType)
		g := ct.Matcher(schema)
		reordered := 0
		for trial := 0; trial < 300; trial++ {
			var children []*Value
			for i, n := 0, rng.Intn(12); i < n; i++ {
				children = append(children, &Value{Name: xsd.QName{Local: names[rng.Intn(len(names))]}})
			}
			if trial%2 == 0 {
				sort.SliceStable(children, func(i, j int) bool { return children[i].Name.Local < children[j].Name.Local })
			}
			got := b.orderChildren(ct, children)
			want := orderChildrenReplay(g, children)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, %v: one pass gives %v, replay %v", root, localNames(children), localNames(got), localNames(want))
			}
			if !slices.Equal(got, children) {
				reordered++
			}
		}
		if reordered == 0 {
			t.Errorf("%s: no trial was reordered", root)
		}
	}
}

func localNames(vs []*Value) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Name.Local)
	}
	return out
}

// TestFromJSONTrailingData checks that the body is one JSON value: after
// it only whitespace may follow, and anything else is bad JSON reported
// at its offset.
func TestFromJSONTrailingData(t *testing.T) {
	b, v := mustDecode(t, schemas.PurchaseOrderXSD, schemas.PurchaseOrderDoc)
	js := string(b.JSON(v))
	if _, err := b.FromJSON([]byte(" \n" + js + " \r\n\t")); err != nil {
		t.Fatalf("whitespace around the value: %v", err)
	}
	for _, tail := range []string{"xyz", `{"a":1}`, " 1", "\n]"} {
		at := len(js) + len(tail) - len(strings.TrimLeft(tail, " \n"))
		want := fmt.Sprintf("after top-level value at offset %d", at)
		_, err := b.FromJSON([]byte(js + tail))
		if err == nil || !strings.HasPrefix(err.Error(), "bind: bad JSON: ") || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("canonical JSON + %q: error %v, want bad JSON ending %q", tail, err, want)
		}
	}
}

// TestFromJSONMixedInadmissibleElement checks that a $mixed segment whose
// $element names no admissible element is an error naming the element
// and the type, not the silent end of the content.
func TestFromJSONMixedInadmissibleElement(t *testing.T) {
	schema, err := xsd.ParseString(mixedXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := New(schema, nil)
	_, err = b.FromJSON([]byte(`{"$element":"p","$mixed":["one ",{"$element":"zzz","$value":"x"}," two ",{"$element":"b","$value":"bold"}," three"]}`))
	if want := `bind: $mixed element "zzz" is not admissible in type P`; err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
	v, err := b.FromJSON([]byte(`{"$element":"p","$mixed":["one ",{"$element":"b","$value":"bold"}," three"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(Serialize(v)), `<p>one <b>bold</b> three</p>`; got != want {
		t.Errorf("serialized %s, want %s", got, want)
	}
}

// TestFromJSONFirstUnknownKey checks that of several unknown keys, or
// several undeclared attributes, the first in document order is
// reported, on every call.
func TestFromJSONFirstUnknownKey(t *testing.T) {
	po, _ := mustDecode(t, schemas.PurchaseOrderXSD, schemas.PurchaseOrderDoc)
	schema, err := xsd.ParseString(mixedXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	mixed := New(schema, nil)
	for _, tc := range []struct {
		b          *Binder
		json, want string
	}{
		{po, `{"$element":"purchaseOrder","aaa":1,"bbb":2,"ccc":3}`, `bind: unknown field "aaa" for type PurchaseOrderType`},
		{po, `{"$element":"purchaseOrder","@aaa":1,"@bbb":2,"@ccc":3}`, `bind: attribute "@aaa" is not declared for element purchaseOrder`},
		{mixed, `{"$element":"p","aaa":1,"bbb":2,"ccc":3,"$mixed":[]}`, `bind: unknown field "aaa" for mixed type P`},
	} {
		for i := 0; i < 50; i++ {
			if _, err := tc.b.FromJSON([]byte(tc.json)); err == nil || err.Error() != tc.want {
				t.Fatalf("%s, call %d: error %v, want %q", tc.json, i, err, tc.want)
			}
		}
	}
}

// keyedMessage matches the errors that name one of several offending
// keys: an unknown field or an undeclared attribute.
var keyedMessage = regexp.MustCompile(`^(bind: unknown field |bind: attribute )"(?:[^"\\]|\\.)*"( for (mixed )?type | is not declared for element )`)

// mapOrdered reports whether the any-tree walk's answer for data
// followed encoding/json's map order: when an object has an empty key
// (the walk's unknown-key check could stop at it and pass the object),
// or spells one attribute name two ways, as "@a" and "@{}a" or
// "@{ns}a" (the walk read whichever the map reached last).
func mapOrdered(data []byte) bool {
	var t jsonTape
	if t.scan(string(data)) != nil {
		return false
	}
	for i := range t.ents {
		if t.kind(i) != '{' {
			continue
		}
		seen := map[string]string{}
		for j, end := i+1, t.end(i); j < end; j = t.end(j + 1) {
			key := t.stringAt(j)
			if key == "" {
				return true
			}
			if !strings.HasPrefix(key, "@") {
				continue
			}
			local := parseAttrKey(key[1:]).Local
			if other, ok := seen[local]; ok && other != key {
				return true
			}
			seen[local] = key
		}
	}
	return false
}

// FuzzFromJSON holds FromJSON to the any-tree walk it replaced
// (treeFromJSON): both succeed or both fail, with the same Serialize
// bytes or the same error. The walk differs by design in two places:
// bad-JSON messages (and trailing data after a first value, which it
// ignored), and which of several unknown keys or undeclared attributes
// it names (it took the map's order). Inputs on which the walk's answer
// followed the map's order are skipped (mapOrdered).
func FuzzFromJSON(f *testing.F) {
	binders, docs := bundledJSON(f)
	for k, js := range docs {
		for _, v := range jsonVariants(f, js) {
			f.Add(uint8(k), v)
		}
	}
	for _, v := range oddJSON(docs[0]) {
		f.Add(uint8(0), v)
	}
	f.Add(uint8(len(docs)-1), []byte(`{"$element":"p","$mixed":["one ",{"$element":"zzz","$value":"x"}," two ",{"$element":"b","$value":"bold"}," three"]}`))
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		b := binders[int(which)%len(binders)]
		got, err := b.FromJSON(data)
		want, werr := b.treeFromJSON(data)
		switch {
		case mapOrdered(data):
		case err != nil && strings.HasPrefix(err.Error(), "bind: bad JSON: "):
			if json.Valid(data) {
				t.Fatalf("bad JSON on a valid body: %v", err)
			}
		case werr != nil && strings.HasPrefix(werr.Error(), "bind: bad JSON: "):
			t.Fatalf("the walk found bad JSON (%v), FromJSON gave %v", werr, err)
		case err == nil && werr == nil:
			if g, w := Serialize(got), Serialize(want); !bytes.Equal(g, w) {
				t.Fatalf("FromJSON serializes\n  %s\nthe walk\n  %s", g, w)
			}
		case werr == nil:
			t.Fatalf("FromJSON: %v; the walk succeeded", err)
		case err == nil:
			t.Fatalf("the walk: %v; FromJSON succeeded", werr)
		case err.Error() != werr.Error():
			g, w := keyedMessage.FindStringSubmatch(err.Error()), keyedMessage.FindStringSubmatch(werr.Error())
			if g == nil || w == nil || g[1] != w[1] || g[2] != w[2] || strings.TrimPrefix(err.Error(), g[0]) != strings.TrimPrefix(werr.Error(), w[0]) {
				t.Fatalf("FromJSON: %v\nthe walk: %v", err, werr)
			}
		}
	})
}
