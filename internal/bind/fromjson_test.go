package bind

import (
	"math/rand"
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
