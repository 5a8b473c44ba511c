package validator

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// idRecorder passes a decoder's tokens on, noting the symbol ID of every
// start tag with the local name local.
type idRecorder struct {
	d     *xmlparser.Decoder
	local string
	ids   []int32
}

func (r *idRecorder) Next(tok *xmlparser.Token) error {
	err := r.d.Next(tok)
	if err == nil && tok.Kind == xmlparser.KindStartElement && tok.Name.Local == r.local {
		r.ids = append(r.ids, tok.SymbolID())
	}
	return err
}

// lazyXSD declares x only in T's content model, which compiles when the
// first second element opens: an x read before that (under first, by the
// wildcard of xs:anyType) finds no ID in the schema's symbols, and an x
// read after it does.
const lazyXSD = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="doc"><xs:complexType><xs:sequence>
    <xs:element name="first" type="xs:anyType"/>
    <xs:element name="second" type="T"/>
  </xs:sequence></xs:complexType></xs:element>
  <xs:complexType name="T"><xs:sequence>
    <xs:element name="x" type="xs:int" maxOccurs="unbounded"/>
    <xs:element name="y" type="xs:int" minOccurs="0"/>
  </xs:sequence></xs:complexType>
</xs:schema>`

// TestSymbolIDInternedMidDocument reads documents whose x elements are
// interned midway: the first x misses the name table, the later ones hit
// it (a miss is not memoized), and the verdict, paths and messages of the
// machine stepping by those IDs are those of the machine fed by a decoder
// without the table and of the DOM walk of a tree parsed without it.
func TestSymbolIDInternedMidDocument(t *testing.T) {
	for _, tc := range []struct {
		src   string
		hits  []bool // whether each x found an ID
		viols int
	}{
		{`<doc><first><x>1</x></first><second><x>1</x><x>2</x></second></doc>`, []bool{false, true, true}, 0},
		{`<doc><first><x>1</x></first><second><x>1</x><x>bad</x><x>3</x></second></doc>`, []bool{false, true, true, true}, 1},
		{`<doc><first><x/></first><second><x>1</x><y>2</y><x>3</x></second></doc>`, []bool{false, true, true}, 1},
		// {urn:other}x is never interned.
		{`<doc><first><x/></first><second><x>1</x><x xmlns="urn:other">2</x></second></doc>`, []bool{false, true, false}, 1},
	} {
		schema, err := xsd.ParseString(lazyXSD, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := schema.Symbols().NameID("", "x"); ok {
			t.Fatal("x is interned before any content model naming it compiled")
		}
		v := New(schema, nil)
		d := xmlparser.NewDecoder([]byte(tc.src), &xmlparser.Options{Namespaces: true, Names: schema.Symbols()})
		rec := &idRecorder{d: d, local: "x"}
		sr := newMachine(v, nil)
		sr.symIDs = true
		got, _ := sr.consume(context.Background(), rec)
		sr.release()
		d.Release()

		id, ok := schema.Symbols().NameID("", "x")
		if !ok {
			t.Fatal("x is not interned after T compiled")
		}
		var want []int32
		for _, hit := range tc.hits {
			if hit {
				want = append(want, id)
			} else {
				want = append(want, -1)
			}
		}
		if !slices.Equal(rec.ids, want) {
			t.Errorf("%s: x symbol IDs %v, want %v", tc.src, rec.ids, want)
		}

		plain := xmlparser.NewDecoder([]byte(tc.src), nil)
		oracle := v.Stream().ValidateTokens(plain)
		plain.Release()
		doc, err := dom.Parse([]byte(tc.src))
		if err != nil {
			t.Fatal(err)
		}
		byDOM := v.ValidateDocument(doc)
		doc.Release()
		if len(oracle.Violations) != tc.viols {
			t.Errorf("%s: %d violations without names, want %d: %v", tc.src, len(oracle.Violations), tc.viols, oracle.Violations)
		}
		if fmt.Sprint(got.Violations) != fmt.Sprint(oracle.Violations) || fmt.Sprint(byDOM.Violations) != fmt.Sprint(oracle.Violations) {
			t.Errorf("%s: by ID %v, DOM %v, without names %v", tc.src, got.Violations, byDOM.Violations, oracle.Violations)
		}
	}
}

// TestChildIndexAcrossNamespaces numbers siblings that share one raw name
// but not its namespace (each declares its own default): the path step
// counts them by prefix:local, as they are written, although their symbol
// IDs differ.
func TestChildIndexAcrossNamespaces(t *testing.T) {
	const other = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:o">
  <xs:element name="x" type="xs:int"/>
</xs:schema>`
	const main = `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" xmlns:o="urn:o">
  <xs:import namespace="urn:o" schemaLocation="other.xsd"/>
  <xs:element name="r"><xs:complexType><xs:choice maxOccurs="unbounded">
    <xs:element name="x" type="xs:int"/>
    <xs:element ref="o:x"/>
  </xs:choice></xs:complexType></xs:element>
</xs:schema>`
	schema, err := xsd.Parse([]byte(main), &xsd.ParseOptions{Resolver: xsd.MapLoader{"other.xsd": []byte(other)}})
	if err != nil {
		t.Fatal(err)
	}
	v := New(schema, nil)
	for src, want := range map[string]string{
		`<r><x>1</x><x xmlns="urn:o">2</x><x>bad</x></r>`:                   "/r/x[3]",
		`<r><x xmlns="urn:o">1</x><x>2</x><x xmlns="urn:o">bad</x></r>`:     "/r/x[3]",
		`<r xmlns:p="urn:o"><p:x>1</p:x><x>2</x><p:x>3</p:x><x>bad</x></r>`: "/r/x[2]",
	} {
		res := v.Stream().ValidateBytes([]byte(src))
		if len(res.Violations) != 1 || res.Violations[0].Path != want {
			t.Errorf("%s: violations %v, want one at %s", src, res.Violations, want)
		}
		_, byDOM := ValidateBytes(schema, []byte(src))
		if fmt.Sprint(byDOM.Violations) != fmt.Sprint(res.Violations) {
			t.Errorf("%s: DOM %v, stream %v", src, byDOM.Violations, res.Violations)
		}
	}
}
