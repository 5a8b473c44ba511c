package repro

// Benchmark harness: one benchmark family per experiment in EXPERIMENTS.md.
// The paper (an application paper) publishes no measured tables; the
// experiments below quantify the claims its prose makes — above all §7's
// "the major disadvantage of [low-level bindings] is the expensive
// validation at run-time", which V-DOM removes.

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bind"
	"repro/internal/cluster"
	"repro/internal/compat"
	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/gen/calcgen"
	"repro/internal/gen/evolvedgen"
	"repro/internal/gen/pogen"
	"repro/internal/normalize"
	"repro/internal/obs"
	"repro/internal/pxml"
	"repro/internal/registry"
	"repro/internal/schemas"
	"repro/internal/server"
	"repro/internal/soap"
	"repro/internal/stringgen"
	"repro/internal/validator"
	"repro/internal/vdom"
	"repro/internal/wml"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdregex"
)

// ---------------------------------------------------------------------------
// E2 — build-and-guarantee cost: DOM+validate vs V-DOM vs string+reparse.
// ---------------------------------------------------------------------------

// orderSizes sweeps the number of items per order.
var orderSizes = []int{1, 10, 100, 1000}

// buildDOMOrder builds an n-item order as a generic DOM tree.
func buildDOMOrder(n int) *dom.Document {
	doc := dom.NewDocument()
	root := doc.CreateElement("purchaseOrder")
	_, _ = doc.AppendChild(root)
	root.SetAttribute("orderDate", "1999-10-20")
	addr := func(tag string) {
		e := doc.CreateElement(tag)
		e.SetAttribute("country", "US")
		for _, kv := range [][2]string{{"name", "n"}, {"street", "s"}, {"city", "c"}, {"state", "st"}, {"zip", "90952"}} {
			c := doc.CreateElement(kv[0])
			_, _ = c.AppendChild(doc.CreateTextNode(kv[1]))
			_, _ = e.AppendChild(c)
		}
		_, _ = root.AppendChild(e)
	}
	addr("shipTo")
	addr("billTo")
	items := doc.CreateElement("items")
	_, _ = root.AppendChild(items)
	for i := 0; i < n; i++ {
		item := doc.CreateElement("item")
		item.SetAttribute("partNum", "926-AA")
		for _, kv := range [][2]string{{"productName", "p"}, {"quantity", "1"}, {"USPrice", "1.50"}} {
			c := doc.CreateElement(kv[0])
			_, _ = c.AppendChild(doc.CreateTextNode(kv[1]))
			_, _ = item.AppendChild(c)
		}
		_, _ = items.AppendChild(item)
	}
	return doc
}

// buildVDOMOrder builds the same order through the typed bindings.
func buildVDOMOrder(d *pogen.Document, n int) *pogen.PurchaseOrderElement {
	addr := func() *pogen.USAddressType {
		return d.CreateUSAddressType(
			d.CreateName("n"), d.CreateStreet("s"), d.CreateCity("c"),
			d.CreateState("st"), d.MustZip("90952"))
	}
	items := d.CreateItemsType()
	for i := 0; i < n; i++ {
		it := d.CreateItemTypeType(d.CreateProductName("p"), d.MustQuantity("1"), d.MustUSPrice("1.50"))
		if err := it.SetPartNum("926-AA"); err != nil {
			panic(err)
		}
		items.AddItem(d.CreateItem(it))
	}
	po := d.CreatePurchaseOrderTypeType(d.CreateShipTo(addr()), d.CreateBillTo(addr()), d.CreateItems(items))
	if err := po.SetOrderDate("1999-10-20"); err != nil {
		panic(err)
	}
	return d.CreatePurchaseOrder(po)
}

var poSchemaOnce *xsd.Schema

func poSchema(b testing.TB) *xsd.Schema {
	if poSchemaOnce == nil {
		s, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
		if err != nil {
			b.Fatal(err)
		}
		poSchemaOnce = s
	}
	return poSchemaOnce
}

// BenchmarkE2_DOMBuildAndValidate is the paper's baseline: build a generic
// DOM tree, then pay a full validation pass to learn whether it is valid.
func BenchmarkE2_DOMBuildAndValidate(b *testing.B) {
	v := validator.New(poSchema(b), nil)
	for _, n := range orderSizes {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				doc := buildDOMOrder(n)
				if res := v.ValidateDocument(doc); !res.OK() {
					b.Fatal(res.Err())
				}
			}
		})
	}
}

// BenchmarkE2_VDOMBuildAndMarshal is V-DOM ending in a DOM: typed
// construction, then the written bytes parsed (vdom.Marshal); validity
// needs no separate pass.
func BenchmarkE2_VDOMBuildAndMarshal(b *testing.B) {
	d := pogen.NewDocument()
	for _, n := range orderSizes {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				root := buildVDOMOrder(d, n)
				if _, err := vdom.Marshal(root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2_StringGenReparseValidate is the §7 "marshalling" path:
// concatenate strings, then parse AND validate the output to establish
// validity.
func BenchmarkE2_StringGenReparseValidate(b *testing.B) {
	schema := poSchema(b)
	for _, n := range orderSizes {
		src := stringOrder(n)
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				_, res := validator.ValidateBytes(schema, src)
				if !res.OK() {
					b.Fatal(res.Err())
				}
			}
		})
	}
}

// stringOrder prints the n-item order as a string generator would
// (stringgen only emits one item).
func stringOrder(n int) []byte {
	var sb strings.Builder
	sb.WriteString(`<purchaseOrder><shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>90952</zip></shipTo>`)
	sb.WriteString(`<billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>90952</zip></billTo><items>`)
	for i := 0; i < n; i++ {
		sb.WriteString(`<item partNum="926-AA"><productName>p</productName><quantity>1</quantity><USPrice>1.50</USPrice></item>`)
	}
	sb.WriteString(`</items></purchaseOrder>`)
	return []byte(sb.String())
}

// BenchmarkE2_VDOMBuildAndAppend is V-DOM ending in bytes: typed
// construction, then AppendXML into a reused buffer; the bytes are valid
// with no pass over them.
func BenchmarkE2_VDOMBuildAndAppend(b *testing.B) {
	d := pogen.NewDocument()
	for _, n := range orderSizes {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = vdom.AppendXML(buf[:0], buildVDOMOrder(d, n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2_StringStreamValidate ends in bytes the other way: print a
// string, then establish its validity with the streaming validator.
func BenchmarkE2_StringStreamValidate(b *testing.B) {
	sv := validator.New(poSchema(b), nil).Stream()
	for _, n := range orderSizes {
		src := stringOrder(n)
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if res := sv.ValidateBytes(src); !res.OK() {
					b.Fatal(res.Err())
				}
			}
		})
	}
}

// BenchmarkE2_VDOMSerializeOnly isolates serialization throughput of the
// typed path.
func BenchmarkE2_VDOMSerializeOnly(b *testing.B) {
	d := pogen.NewDocument()
	root := buildVDOMOrder(d, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vdom.MarshalString(root); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E3 — content-model automaton construction (paper §6 cites the
// Aho–Sethi–Ullman construction for its preprocessor generator).
// ---------------------------------------------------------------------------

// syntheticModel builds a sequence of k choice groups of width w.
func syntheticModel(k, w int) *contentmodel.Particle {
	var seq []*contentmodel.Particle
	for i := 0; i < k; i++ {
		var alts []*contentmodel.Particle
		for j := 0; j < w; j++ {
			name := fmt.Sprintf("e%d_%d", i, j)
			alts = append(alts, contentmodel.NewElementLeaf(1, 1, contentmodel.Symbol{Local: name}, name))
		}
		seq = append(seq, contentmodel.NewChoice(0, 1, alts...))
	}
	return contentmodel.NewSequence(1, 1, seq...)
}

// BenchmarkE3_GlushkovConstruction measures automaton build time against
// model size.
func BenchmarkE3_GlushkovConstruction(b *testing.B) {
	for _, size := range []struct{ k, w int }{{4, 2}, {16, 4}, {64, 4}, {128, 8}} {
		p := syntheticModel(size.k, size.w)
		b.Run(fmt.Sprintf("groups=%d_width=%d", size.k, size.w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := contentmodel.CompileGlushkov(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3_UPACheck measures the determinism check.
func BenchmarkE3_UPACheck(b *testing.B) {
	p := syntheticModel(64, 4)
	g, err := contentmodel.CompileGlushkov(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.CheckUPA(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_CountedModels measures the models the count expansion
// could not hold: compile, UPA check and one match, for e{1,5000} over
// 5,000 children and for a 7-member all group in reverse order.
func BenchmarkE3_CountedModels(b *testing.B) {
	e := contentmodel.Symbol{Local: "e"}
	long := make([]contentmodel.Symbol, 5000)
	for i := range long {
		long[i] = e
	}
	var members []*contentmodel.Particle
	var reversed []contentmodel.Symbol
	for i := 0; i < 7; i++ {
		s := contentmodel.Symbol{Local: fmt.Sprintf("m%d", i)}
		members = append(members, contentmodel.NewElementLeaf(1, 1, s, s.Local))
		reversed = append([]contentmodel.Symbol{s}, reversed...)
	}
	for _, m := range []struct {
		name  string
		p     *contentmodel.Particle
		input []contentmodel.Symbol
	}{
		{"e{1,5000}", contentmodel.NewSequence(1, 1, contentmodel.NewElementLeaf(1, 5000, e, "e")), long},
		{"all7", contentmodel.NewAll(1, 1, members...), reversed},
	} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := contentmodel.CompileGlushkov(m.p)
				if err != nil {
					b.Fatal(err)
				}
				if err := g.CheckUPA(); err != nil {
					b.Fatal(err)
				}
				if _, err := g.Match(m.input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E4 — pattern facet matching on the content-model automaton.
// ---------------------------------------------------------------------------

// BenchmarkE4_PatternCompile measures compilation of the paper's SKU
// pattern and a heavier real-world pattern.
func BenchmarkE4_PatternCompile(b *testing.B) {
	patterns := map[string]string{
		"sku":   `\d{3}-[A-Z]{2}`,
		"email": `([a-zA-Z0-9._%+-])+@([a-zA-Z0-9.-])+`,
		"iban":  `[A-Z]{2}[0-9]{2}[A-Z0-9]{1,30}`,
	}
	for name, pat := range patterns {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := xsdregex.Compile(pat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4_PatternMatch measures the per-value cost the validator pays
// for pattern facets: SKU checking, and a 5,000-rune value under the
// counter of a{0,5000}, both on warm matchers.
func BenchmarkE4_PatternMatch(b *testing.B) {
	for _, c := range []struct {
		name, pattern string
		inputs        []string
	}{
		{"sku", `\d{3}-[A-Z]{2}`, []string{"926-AA", "872-AB", "926-aa", "junk", "123-ZZ"}},
		{"a0-5000", `a{0,5000}`, []string{strings.Repeat("a", 5000)}},
	} {
		re := xsdregex.MustCompile(c.pattern)
		for _, in := range c.inputs {
			re.MatchString(in)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				re.MatchString(c.inputs[i%len(c.inputs)])
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E5 — preprocessor throughput (Fig. 9 pipeline) vs runtime checking.
// ---------------------------------------------------------------------------

// syntheticPXML builds a source file with k shipTo constructors.
func syntheticPXML(k int) string {
	var sb strings.Builder
	sb.WriteString("package p\n//pxml:package pogen\n//pxml:doc d\nfunc f(d *pogen.Document) {\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "\ts%d := <shipTo country=\"US\"><name>n</name><street>s</street><city>c</city><state>st</state><zip>90952</zip></shipTo>;\n\t_ = s%d\n", i, i)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// BenchmarkE5_PreprocessorRewrite: constructors statically validated and
// rewritten per second.
func BenchmarkE5_PreprocessorRewrite(b *testing.B) {
	pp, err := pxml.New(pxml.Options{SchemaSource: schemas.PurchaseOrderXSD, Scheme: normalize.SchemePaper, Package: "pogen", DocExpr: "d"})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 10, 100} {
		src := syntheticPXML(k)
		b.Run(fmt.Sprintf("constructors=%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := pp.Rewrite(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5_RuntimeEquivalent: the runtime cost the preprocessor
// replaces — parsing and validating the same fragment per request.
func BenchmarkE5_RuntimeEquivalent(b *testing.B) {
	schema := poSchema(b)
	v := validator.New(schema, nil)
	fragment := []byte(`<shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>90952</zip></shipTo>`)
	shipType := schema.Types[xsd.QName{Local: "USAddress"}]
	b.SetBytes(int64(len(fragment)))
	for i := 0; i < b.N; i++ {
		doc, err := dom.Parse(fragment)
		if err != nil {
			b.Fatal(err)
		}
		// Validate the fragment against its declaration (shipTo is a
		// local element; validate via its type through a synthetic
		// declaration).
		root := doc.DocumentElement()
		res := v.ValidateElement(root, &xsd.ElementDecl{
			Name: xsd.QName{Local: "shipTo"},
			Type: shipType,
		})
		if !res.OK() {
			b.Fatal(res.Err())
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate benchmarks: parser, schema compiler, generator, serializer.
// ---------------------------------------------------------------------------

// BenchmarkParseXML measures raw parser throughput on the Fig. 1 document.
func BenchmarkParseXML(b *testing.B) {
	src := []byte(schemas.PurchaseOrderDoc)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := xmlparser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseToDOM measures parse + tree construction.
func BenchmarkParseToDOM(b *testing.B) {
	src := []byte(schemas.PurchaseOrderDoc)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := dom.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemaCompile measures schema parsing and resolution (the
// preprocessor generator's first step, Fig. 9).
func BenchmarkSchemaCompile(b *testing.B) {
	for _, tc := range []struct{ name, src string }{
		{"purchaseOrder", schemas.PurchaseOrderXSD},
		{"wml", wml.Schema},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(tc.src)))
			for i := 0; i < b.N; i++ {
				if _, err := xsd.ParseString(tc.src, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkValidateFig1 measures one full validation of the paper's
// instance document.
func BenchmarkValidateFig1(b *testing.B) {
	schema := poSchema(b)
	doc, err := dom.ParseString(schemas.PurchaseOrderDoc)
	if err != nil {
		b.Fatal(err)
	}
	v := validator.New(schema, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := v.ValidateDocument(doc); !res.OK() {
			b.Fatal(res.Err())
		}
	}
}

// ---------------------------------------------------------------------------
// E7 (concurrency addendum) — shared compiled content models + batch pool.
// ---------------------------------------------------------------------------

// BenchmarkE7_CachedValidate validates through one reused Validator (the
// BenchmarkValidateFig1 configuration). The compiled content models belong
// to the schema, so a fresh Validator per document costs the same.
func BenchmarkE7_CachedValidate(b *testing.B) {
	schema := poSchema(b)
	doc, err := dom.ParseString(schemas.PurchaseOrderDoc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("warm-cached", func(b *testing.B) {
		b.ReportAllocs()
		v := validator.New(schema, nil)
		for i := 0; i < b.N; i++ {
			if res := v.ValidateDocument(doc); !res.OK() {
				b.Fatal(res.Err())
			}
		}
	})
}

// BenchmarkE7_ParallelBatchValidate compares a sequential loop over a
// 64-document batch against StreamValidator.ValidateBatch's bounded worker
// pool, both streaming every document from its bytes through one shared
// Validator (both paths step the schema's compiled models; the delta is
// pure parallelism).
func BenchmarkE7_ParallelBatchValidate(b *testing.B) {
	sv := validator.New(poSchema(b), nil).Stream()
	const batchSize = 64
	srcs := make([][]byte, batchSize)
	for i := range srcs {
		srcs[i] = []byte(schemas.PurchaseOrderDoc)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, src := range srcs {
				if res := sv.ValidateBytes(src); !res.OK() {
					b.Fatal(res.Err())
				}
			}
		}
	})
	b.Run("batch-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, res := range sv.ValidateBatch(srcs) {
				if !res.OK() {
					b.Fatal(res.Err())
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E8 — streaming validation: DOM build + validate vs incremental checking.
// ---------------------------------------------------------------------------

// largePOSource emits an n-item purchase order as raw bytes, the input
// shape both E8 paths start from.
func largePOSource(n int) []byte {
	var sb strings.Builder
	sb.WriteString(`<purchaseOrder orderDate="1999-10-20"><shipTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>90952</zip></shipTo>`)
	sb.WriteString(`<billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>90952</zip></billTo><items>`)
	for i := 0; i < n; i++ {
		sb.WriteString(`<item partNum="926-AA"><productName>p</productName><quantity>1</quantity><USPrice>1.50</USPrice><shipDate>1999-12-21</shipDate></item>`)
	}
	sb.WriteString(`</items></purchaseOrder>`)
	return []byte(sb.String())
}

// BenchmarkE8_StreamValidate compares the two ways to answer "are these
// bytes schema-valid": the DOM path (parse into a tree, then walk it) and
// the streaming path (drive the cached Glushkov automata directly off the
// token stream, O(depth) live state). The headline number is bytes/op:
// the stream never materializes the document.
func BenchmarkE8_StreamValidate(b *testing.B) {
	v := validator.New(poSchema(b), nil)
	sv := v.Stream()
	for _, n := range orderSizes {
		src := largePOSource(n)
		b.Run(fmt.Sprintf("dom/items=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				doc, err := dom.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				if res := v.ValidateDocument(doc); !res.OK() {
					b.Fatal(res.Err())
				}
			}
		})
		// dom-release is the DOM path as /v1/validate runs it: the tree's
		// pooled storage goes back after the verdict, so its slabs are
		// reused rather than collected.
		b.Run(fmt.Sprintf("dom-release/items=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				doc, err := dom.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				res := v.ValidateDocument(doc)
				doc.Release()
				if !res.OK() {
					b.Fatal(res.Err())
				}
			}
		})
		b.Run(fmt.Sprintf("stream/items=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if res := sv.ValidateBytes(src); !res.OK() {
					b.Fatal(res.Err())
				}
			}
		})
	}
	// keyed streams n items under keyXSD's xs:key: the identity scope is
	// the whole document, checked on its tokens as they pass.
	ks, err := xsd.ParseString(keyXSD, nil)
	if err != nil {
		b.Fatal(err)
	}
	keyed := validator.New(ks, nil).Stream()
	for _, n := range []int{1000, 10000} {
		src := keyedItems(n)
		b.Run(fmt.Sprintf("keyed/items=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if res := keyed.ValidateBytes(src); !res.OK() {
					b.Fatal(res.Err())
				}
			}
		})
	}
}

// keyedItems writes n <item> children with distinct ids under <keyed>.
func keyedItems(n int) []byte {
	var sb strings.Builder
	sb.WriteString("<keyed>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<item id="i%d"/>`, i)
	}
	sb.WriteString("</keyed>")
	return []byte(sb.String())
}

// BenchmarkE6_NormalizeSchemes measures normalization under each naming
// scheme (the cost side of E6; the stability side is TestE6NamingStability).
func BenchmarkE6_NormalizeSchemes(b *testing.B) {
	schema := poSchema(b)
	for _, scheme := range []normalize.Scheme{normalize.SchemePaper, normalize.SchemeSynthesized, normalize.SchemeInherited} {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := normalize.Normalize(schema, scheme); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStringGen is the raw concatenation generator — fastest and
// unsafest corner of the design space.
func BenchmarkStringGen(b *testing.B) {
	subDirs := []string{"audio", "video", "images"}
	for i := 0; i < b.N; i++ {
		stringgen.DirectoryPageWML("/workspace/media", "/workspace", subDirs)
	}
}

// ---------------------------------------------------------------------------
// E10 — lazy-DFA content-model execution vs NFA position-set stepping.
// ---------------------------------------------------------------------------

// e10Models builds the stepper micro-benchmark corpus: the purchase-order
// items model under a long repeated-child stream, and a wide synthetic
// choice pipeline where the NFA carries many live candidates per step.
func e10Models(b *testing.B) []struct {
	name  string
	g     *contentmodel.Glushkov
	input []contentmodel.Symbol
} {
	items := contentmodel.NewSequence(1, 1,
		contentmodel.NewElementLeaf(0, contentmodel.Unbounded, contentmodel.Symbol{Local: "item"}, "item"))
	itemsInput := make([]contentmodel.Symbol, 1000)
	for i := range itemsInput {
		itemsInput[i] = contentmodel.Symbol{Local: "item"}
	}
	wide := syntheticModel(32, 16)
	wideInput := make([]contentmodel.Symbol, 32)
	for i := range wideInput {
		wideInput[i] = contentmodel.Symbol{Local: fmt.Sprintf("e%d_%d", i, i%16)}
	}
	out := []struct {
		name  string
		g     *contentmodel.Glushkov
		input []contentmodel.Symbol
	}{
		{"po-items-1000", nil, itemsInput},
		{"wide-choice-k32w16", nil, wideInput},
	}
	for i, p := range []*contentmodel.Particle{items, wide} {
		g, err := contentmodel.CompileGlushkov(p)
		if err != nil {
			b.Fatal(err)
		}
		if !g.EnableDFA(contentmodel.NewInterner()) {
			b.Fatalf("%s: EnableDFA refused", out[i].name)
		}
		out[i].g = g
	}
	return out
}

// BenchmarkE10_ContentModelStep isolates the stepper: one Run reused via
// Reset (the validator's hot pattern), DFA execution vs NFA position sets
// over identical inputs. The DFA is warmed by a first pass so the numbers
// reflect steady state, as in repeated validation against a cached model.
func BenchmarkE10_ContentModelStep(b *testing.B) {
	for _, m := range e10Models(b) {
		run := func(b *testing.B, r *contentmodel.Run) {
			b.Helper()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Reset(m.g)
				for _, s := range m.input {
					if _, err := r.Step(s); err != nil {
						b.Fatal(err)
					}
				}
				if err := r.End(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(m.name+"/dfa", func(b *testing.B) { run(b, m.g.Start()) })
		b.Run(m.name+"/nfa", func(b *testing.B) { run(b, m.g.StartNFA()) })
	}
}

// BenchmarkE10_WarmValidate measures the end-to-end effect: repeated
// whole-document validation of a 100-item purchase order through one
// cached Validator, DFA on vs off.
func BenchmarkE10_WarmValidate(b *testing.B) {
	schema := poSchema(b)
	doc, err := dom.Parse(largePOSource(100))
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opts *validator.Options
	}{
		{"dfa", nil},
		{"nfa", &validator.Options{DisableDFA: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			v := validator.New(schema, cfg.opts)
			for i := 0; i < b.N; i++ {
				if res := v.ValidateDocument(doc); !res.OK() {
					b.Fatal(res.Err())
				}
			}
		})
	}
}

// BenchmarkE10_ParseValidateRelease is the allocation story: the full
// parse → validate → discard loop with the pooled DOM arena recycled via
// Release, against the same loop leaking documents to the collector.
func BenchmarkE10_ParseValidateRelease(b *testing.B) {
	schema := poSchema(b)
	src := []byte(schemas.PurchaseOrderDoc)
	v := validator.New(schema, nil)
	b.Run("release", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			doc, err := dom.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			if res := v.ValidateDocument(doc); !res.OK() {
				b.Fatal(res.Err())
			}
			doc.Release()
		}
	})
	b.Run("no-release", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			doc, err := dom.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			if res := v.ValidateDocument(doc); !res.OK() {
				b.Fatal(res.Err())
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E11 — service throughput: the HTTP validation endpoints end to end.
// ---------------------------------------------------------------------------

// BenchmarkE11_ServerValidate measures what a client of xsdserved actually
// pays: HTTP request + body transfer + validation + JSON verdict, against
// a warm registry (schemas compiled once, content models hot). The
// DOM/stream split shows how much of the per-request cost is tree
// materialization once the transport overhead is shared; bytes/op is the
// request body size, so the sweep over item counts reads as throughput
// scaling.
func BenchmarkE11_ServerValidate(b *testing.B) {
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "po.xsd"), []byte(schemas.PurchaseOrderXSD), 0o644); err != nil {
		b.Fatal(err)
	}
	reg := registry.New(dir, nil)
	if _, err := reg.Reload(); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{Registry: reg}).Handler())
	defer ts.Close()
	client := ts.Client()

	post := func(b *testing.B, url string, src []byte) {
		b.Helper()
		resp, err := client.Post(url, "application/xml", bytes.NewReader(src))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	for _, n := range []int{1, 100, 1000} {
		src := largePOSource(n)
		for _, mode := range []struct{ name, query string }{
			{"dom", ""},
			{"stream", "?stream=1"},
		} {
			url := ts.URL + "/v1/validate/po" + mode.query
			b.Run(fmt.Sprintf("%s/items=%d", mode.name, n), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(src)))
				for i := 0; i < b.N; i++ {
					post(b, url, src)
				}
			})
		}
	}
	// The concurrent shape: many clients against one warm server, the
	// limiter admitting up to 4×GOMAXPROCS validations at once.
	src := largePOSource(100)
	url := ts.URL + "/v1/validate/po"
	b.Run("dom/items=100/parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				post(b, url, src)
			}
		})
	})
}

// ---------------------------------------------------------------------------
// E12 — schema-directed binding: validate+decode in one pass vs the parts.
// ---------------------------------------------------------------------------

// e12POJSON is the untyped struct encoding/xml users reach for when they
// want "the purchase order as data" — the no-schema baseline: decoded
// fields are strings, nothing is validated, and attribute defaults are
// simply absent.
type e12PO struct {
	OrderDate string `xml:"orderDate,attr"`
	Items     struct {
		Item []struct {
			PartNum     string `xml:"partNum,attr"`
			ProductName string `xml:"productName"`
			Quantity    string `xml:"quantity"`
			USPrice     string `xml:"USPrice"`
		} `xml:"item"`
	} `xml:"items"`
}

// BenchmarkE12_Decode measures what the one-pass promise costs: stream
// validation alone (the floor the decoder rides on), DOM decode (parse →
// validate → walk the tree), stream decode (typed values built from the
// same frames that validate, no DOM), and encoding/xml (decode without
// any verdict). The acceptance bar is stream decode ≤ 2× the stream
// validator's B/op at 1000 items — the typed value tree is the only
// extra allocation the binding adds.
func BenchmarkE12_Decode(b *testing.B) {
	schema := poSchema(b)
	v := validator.New(schema, nil)
	bn := bind.New(schema, v)
	sv := v.Stream()
	for _, n := range []int{1, 100, 1000} {
		src := largePOSource(n)
		b.Run(fmt.Sprintf("validate-stream/items=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if res := sv.ValidateBytes(src); !res.OK() {
					b.Fatal(res.Err())
				}
			}
		})
		b.Run(fmt.Sprintf("decode-dom/items=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				val, res := bn.DecodeBytes(src)
				if val == nil {
					b.Fatal(res.Err())
				}
			}
		})
		b.Run(fmt.Sprintf("decode-stream/items=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				val, res, err := bn.DecodeStreamBytes(src)
				if err != nil {
					b.Fatal(err)
				}
				if val == nil {
					b.Fatal(res.Err())
				}
			}
		})
		b.Run(fmt.Sprintf("encoding-xml/items=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				var po e12PO
				if err := xml.Unmarshal(src, &po); err != nil {
					b.Fatal(err)
				}
				if len(po.Items.Item) != n {
					b.Fatalf("decoded %d items, want %d", len(po.Items.Item), n)
				}
			}
		})
	}
}

// BenchmarkE12_JSONAndMarshal covers the other legs of the round trip at
// a fixed size: projecting a decoded value to canonical JSON, marshalling
// it back to XML (validated token by token as it is written — the cost of
// the schema-valid-by-construction guarantee), and rebuilding the value
// from its JSON.
func BenchmarkE12_JSONAndMarshal(b *testing.B) {
	schema := poSchema(b)
	bn := bind.New(schema, nil)
	src := largePOSource(100)
	val, res := bn.DecodeBytes(src)
	if val == nil {
		b.Fatal(res.Err())
	}
	b.Run("json/items=100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(bn.JSON(val)) == 0 {
				b.Fatal("empty JSON")
			}
		}
	})
	b.Run("marshal/items=100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bn.Marshal(val); err != nil {
				b.Fatal(err)
			}
		}
	})
	js := bn.JSON(val)
	b.Run("from_json/items=100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bn.FromJSON(js); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// discardResponse is an http.ResponseWriter that keeps nothing, so a
// handler benchmark counts the handler's allocations and not a recorder's.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// BenchmarkE12_DecodeHandler prices one /v1/decode request in process,
// through the server's handler with no transport: validate, decode and
// write the response, whose canonical JSON is the largest allocation
// after the decoded value.
func BenchmarkE12_DecodeHandler(b *testing.B) {
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "po.xsd"), []byte(schemas.PurchaseOrderXSD), 0o644); err != nil {
		b.Fatal(err)
	}
	reg := registry.New(dir, nil)
	if _, err := reg.Reload(); err != nil {
		b.Fatal(err)
	}
	h := server.New(server.Config{Registry: reg}).Handler()
	src := largePOSource(100)
	for _, mode := range []struct{ name, query string }{
		{"dom", ""},
		{"stream", "?stream=1"},
	} {
		b.Run(mode.name+"/items=100", func(b *testing.B) {
			b.ReportAllocs()
			w := &discardResponse{h: http.Header{}}
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/decode/po"+mode.query, bytes.NewReader(src))
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					b.Fatalf("status %d", w.code)
				}
			}
		})
	}
}

// BenchmarkE12_EncodeHandler prices one /v1/encode request in process,
// beside BenchmarkE12_DecodeHandler: the canonical JSON of the same order
// read back into a value tree and marshaled to XML.
func BenchmarkE12_EncodeHandler(b *testing.B) {
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "po.xsd"), []byte(schemas.PurchaseOrderXSD), 0o644); err != nil {
		b.Fatal(err)
	}
	reg := registry.New(dir, nil)
	if _, err := reg.Reload(); err != nil {
		b.Fatal(err)
	}
	h := server.New(server.Config{Registry: reg}).Handler()
	entry, _ := reg.Get("po")
	val, res := entry.Binder.DecodeBytes(largePOSource(100))
	if val == nil {
		b.Fatal(res.Err())
	}
	js := entry.Binder.JSON(val)
	b.Run("items=100", func(b *testing.B) {
		b.ReportAllocs()
		w := &discardResponse{h: http.Header{}}
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/encode/po", bytes.NewReader(js))
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("status %d", w.code)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E13 — registry cold-start and compatibility checking at fleet scale.
// ---------------------------------------------------------------------------

// writeSchemaGraph materializes an n-schema import graph: one shared
// library under lib/ plus n top-level schemas, each in its own namespace,
// importing it. This is the worst case for the per-reload cache (every
// dependent pulls the same file) and the best case for the parallel pool
// (compilations are independent).
func writeSchemaGraph(b *testing.B, n int) string {
	b.Helper()
	dir := b.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "lib"), 0o755); err != nil {
		b.Fatal(err)
	}
	lib := `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:shared"
            xmlns:s="urn:shared">
  <xsd:complexType name="Meta">
    <xsd:sequence>
      <xsd:element name="id" type="xsd:string"/>
      <xsd:element name="rev" type="xsd:positiveInteger" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>`
	if err := os.WriteFile(filepath.Join(dir, "lib", "common.xsd"), []byte(lib), 0o644); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:s%d"
            xmlns:s="urn:shared" elementFormDefault="qualified">
  <xsd:import namespace="urn:shared" schemaLocation="lib/common.xsd"/>
  <xsd:element name="doc%d">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="meta" type="s:Meta"/>
        <xsd:element name="body" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
      <xsd:attribute name="lang" type="xsd:language" default="en"/>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>`, i, i)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("s%04d.xsd", i)), []byte(src), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return dir
}

// BenchmarkE13_ColdStart prices bringing a registry from empty to serving
// over an n-schema import graph: every iteration starts a fresh registry
// (cold caches) and runs one full Reload, compiling changed schemas
// concurrently under the shared per-reload stat/read cache.
func BenchmarkE13_ColdStart(b *testing.B) {
	for _, n := range []int{200, 1000} {
		dir := writeSchemaGraph(b, n)
		b.Run(fmt.Sprintf("parallel/schemas=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				changed, err := registry.New(dir, nil).Reload()
				if err != nil {
					b.Fatal(err)
				}
				if changed != n {
					b.Fatalf("cold start loaded %d schemas, want %d", changed, n)
				}
			}
		})
	}
}

// BenchmarkE13_WarmReload prices the steady state the watcher lives in: a
// no-op Reload over an already-loaded 1000-schema graph, where change
// detection stats each closure file once (shared library included) and
// every entry keeps its warm validator.
func BenchmarkE13_WarmReload(b *testing.B) {
	const n = 1000
	dir := writeSchemaGraph(b, n)
	reg := registry.New(dir, nil)
	if _, err := reg.Reload(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		changed, err := reg.Reload()
		if err != nil {
			b.Fatal(err)
		}
		if changed != 0 {
			b.Fatalf("warm reload recompiled %d schemas, want 0", changed)
		}
	}
}

// BenchmarkE13_CompatClassify prices the compatibility gate itself:
// classifying every evolvedgen old/new schema pair (inclusion checks over
// Glushkov product constructions plus the structural simple-type walk).
// Parsing is hoisted out — a reload classifies already-parsed schemas.
func BenchmarkE13_CompatClassify(b *testing.B) {
	type parsedPair struct{ old, new *xsd.Schema }
	var pairs []parsedPair
	for _, p := range evolvedgen.Pairs() {
		oldS, err := xsd.ParseString(p.Old, nil)
		if err != nil {
			b.Fatalf("%s old: %v", p.Name, err)
		}
		newS, err := xsd.ParseString(p.New, nil)
		if err != nil {
			b.Fatalf("%s new: %v", p.Name, err)
		}
		pairs = append(pairs, parsedPair{oldS, newS})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			if rep := compat.Classify(p.old, p.new); rep == nil {
				b.Fatal("nil report")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// E15 — zero-copy SWAR tokenization and one large document per walk.
// ---------------------------------------------------------------------------

// e15TextDoc builds a ~1MB text-dominated document: long character runs
// with newlines, the shape the SWAR word sweep is built for.
func e15TextDoc() []byte {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "<p>line %d: ", i)
		sb.WriteString(strings.Repeat("the quick brown fox jumps over the lazy dog\n", 10))
		sb.WriteString("</p>")
	}
	sb.WriteString("</doc>")
	return []byte(sb.String())
}

// e15ProseWords is the word list of the repository benchmark's free text
// (bench/workload, which the root module cannot import): references and
// multi-byte UTF-8 come every few words.
var e15ProseWords = []string{"deliver", "before", "noon", "fragile", "keep", "dry", "gift", "wrap", "please", "call", "on", "arrival", "left", "side", "door", "R&D", "<urgent>", "naïve", "façade", "résumé", "€5", "extra", "padding", "invoice", "to", "HQ"}

// e15ProseDoc builds a ~1MB document of the large-po workload's comments:
// paragraphs of 200–600 bytes of those words, escaped as the workload
// escapes them, on one line.
func e15ProseDoc() []byte {
	r := rand.New(rand.NewSource(1))
	esc := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	var sb strings.Builder
	sb.WriteString("<doc>")
	for sb.Len() < 1<<20 {
		sb.WriteString("<comment>")
		for n, want := 0, 200+r.Intn(401); n < want; {
			w := e15ProseWords[r.Intn(len(e15ProseWords))]
			if n > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(esc.Replace(w))
			n += len(w) + 1
		}
		sb.WriteString("</comment>")
	}
	sb.WriteString("</doc>")
	return []byte(sb.String())
}

// BenchmarkE15_TokenizerScan prices a full tokenization pass three ways:
// zero-copy (tokens consumed through Bytes, nothing materialized),
// materialized (Data() on every token — the pre-zero-copy behavior every
// consumer was forced into), and reader (the zero-copy pass in reader
// mode, pulled with Next into one reused token, as the server's streaming
// validation and SOAP read a request body). The B/op gap is the tentpole
// metric: the zero-copy scan allocates near-nothing per document
// regardless of size. The documents are long plain runs (text-heavy),
// the large-po workload's escaped, multi-byte comments (prose) and small
// tags with short text (markup-heavy).
func BenchmarkE15_TokenizerScan(b *testing.B) {
	docs := []struct {
		name string
		src  []byte
	}{
		{"text-heavy-1MB", e15TextDoc()},
		{"prose-1MB", e15ProseDoc()},
		{"markup-heavy-1MB", []byte(strings.Repeat(`<item partNum="001-AB"><productName>Widget</productName><quantity>1</quantity><USPrice>9.95</USPrice></item>`, 9000))},
	}
	for _, d := range docs {
		b.Run(d.name+"/zero-copy", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(d.src)))
			for i := 0; i < b.N; i++ {
				dec := xmlparser.NewDecoder(d.src, &xmlparser.Options{Fragment: true})
				var n int
				for {
					tok, err := dec.Token()
					if err != nil {
						b.Fatal(err)
					}
					if tok == nil {
						break
					}
					n += len(tok.Bytes())
				}
				if n == 0 {
					b.Fatal("no bytes scanned")
				}
			}
		})
		b.Run(d.name+"/reader", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(d.src)))
			for i := 0; i < b.N; i++ {
				dec := xmlparser.NewReaderDecoder(bytes.NewReader(d.src), &xmlparser.Options{Fragment: true})
				var tok xmlparser.Token
				var n int
				for {
					err := dec.Next(&tok)
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					n += len(tok.Bytes())
				}
				if n == 0 {
					b.Fatal("no bytes scanned")
				}
			}
		})
		b.Run(d.name+"/materialized", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(d.src)))
			for i := 0; i < b.N; i++ {
				dec := xmlparser.NewDecoder(d.src, &xmlparser.Options{Fragment: true})
				var n int
				for {
					tok, err := dec.Token()
					if err != nil {
						b.Fatal(err)
					}
					if tok == nil {
						break
					}
					n += len(tok.Data())
				}
				if n == 0 {
					b.Fatal("no bytes scanned")
				}
			}
		})
	}
}

// BenchmarkE15_LargeOrder prices one large document, bytes in and
// verdict out, on the two walks every entry point runs: the stream leg
// validates straight from the bytes (StreamValidator.ValidateBytes, what
// ?stream=1 and xsdcheck -stream run), the dom leg parses a tree,
// replays it and releases it (what /v1/validate runs by default). The
// document is a ~4.4 MB purchase order with 30,000 items.
func BenchmarkE15_LargeOrder(b *testing.B) {
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		b.Fatal(err)
	}
	src := []byte(syntheticOrder(30000, false))
	v := validator.New(schema, nil)
	b.Logf("document: %.1f MB", float64(len(src))/(1<<20))
	b.Run("bytes-to-verdict/stream", func(b *testing.B) {
		sv := v.Stream()
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if res := sv.ValidateBytes(src); !res.OK() {
				b.Fatalf("bench document invalid: %v", res.Err())
			}
		}
	})
	b.Run("bytes-to-verdict/dom", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			doc, err := dom.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			if res := v.ValidateDocument(doc); !res.OK() {
				b.Fatalf("bench document invalid: %v", res.Err())
			}
			doc.Release()
		}
	})
}

// syntheticOrder builds a purchase order with n items; withDefects seeds
// a bad value every 500th item.
func syntheticOrder(n int, withDefects bool) string {
	var sb strings.Builder
	sb.WriteString(`<purchaseOrder orderDate="1999-10-20"><shipTo country="US"><name>Alice Smith</name><street>123 Maple Street</street><city>Mill Valley</city><state>CA</state><zip>90952</zip></shipTo><billTo country="US"><name>Robert Smith</name><street>8 Oak Avenue</street><city>Old Town</city><state>PA</state><zip>95819</zip></billTo><items>`)
	for i := 0; i < n; i++ {
		qty := "1"
		if withDefects && i%500 == 250 {
			qty = "many"
		}
		fmt.Fprintf(&sb, `<item partNum="%03d-AB"><productName>Widget %d</productName><quantity>%s</quantity><USPrice>%d.95</USPrice><shipDate>1999-10-21</shipDate></item>`, i%1000, i, qty, i%90+1)
	}
	sb.WriteString(`</items></purchaseOrder>`)
	return sb.String()
}

// ---------------------------------------------------------------------------
// E16 — typed RPC: what the SOAP envelope adds over bare validation.
// ---------------------------------------------------------------------------

// BenchmarkE16_SOAP prices the envelope layer against the validation
// floor it rides on. payload/validate is the bar: parse + validate just
// the operation payload. envelope/handle adds the full dispatch stack —
// envelope framing, operation routing, in-place payload validation,
// typed decode, the handler, response marshal (re-validated) and
// envelope wrap. rpc/http is what a generated-client caller actually
// pays, transport included, against the service mounted on the shared
// serving stack.
func BenchmarkE16_SOAP(b *testing.B) {
	d, err := calcgen.Definitions()
	if err != nil {
		b.Fatal(err)
	}
	addHandler := func(svc *soap.Service) soap.Handler {
		return func(_ context.Context, req *bind.Value) (*bind.Value, error) {
			sum := 0
			for _, c := range req.Children {
				n, _ := strconv.Atoi(c.Simple.String())
				sum += n
			}
			return svc.Binder().FromJSON([]byte(fmt.Sprintf(`{"$element":"AddResponse","sum":%d}`, sum)))
		}
	}
	svc, err := soap.NewService(d, "Calc")
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.Register("Add", addHandler(svc)); err != nil {
		b.Fatal(err)
	}

	payload := []byte(`<c:AddRequest xmlns:c="urn:calc"><c:a>40</c:a><c:b>2</c:b></c:AddRequest>`)
	envelope := []byte(`<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body>` +
		`<c:AddRequest xmlns:c="urn:calc"><c:a>40</c:a><c:b>2</c:b></c:AddRequest></e:Body></e:Envelope>`)
	val := validator.New(d.Schema, nil)
	ctx := context.Background()

	b.Run("payload/validate", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			doc, err := dom.Parse(payload)
			if err != nil {
				b.Fatal(err)
			}
			if !val.ValidateDocument(doc).OK() {
				b.Fatal("verdict flipped")
			}
			doc.Release()
		}
	})
	b.Run("envelope/handle", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(envelope)))
		for i := 0; i < b.N; i++ {
			resp := svc.Handle(ctx, envelope, "")
			if resp.Faulted {
				b.Fatalf("faulted: %s", resp.Body)
			}
		}
	})

	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "po.xsd"), []byte(schemas.PurchaseOrderXSD), 0o644); err != nil {
		b.Fatal(err)
	}
	reg := registry.New(dir, nil)
	if _, err := reg.Reload(); err != nil {
		b.Fatal(err)
	}
	srv := server.New(server.Config{Registry: reg})
	srv.RegisterSOAP(svc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := calcgen.NewClient(ts.URL + "/v1/soap/Calc")
	if err != nil {
		b.Fatal(err)
	}
	req, err := client.Binder().FromJSON([]byte(`{"$element":"AddRequest","a":40,"b":2}`))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rpc/http", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(envelope)))
		for i := 0; i < b.N; i++ {
			if _, err := client.Add(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rpc/http/parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(envelope)))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := client.Add(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// ---------------------------------------------------------------------------
// E17 — cluster tier: fleet routing cost, batch amortization, and
// shared-parse cold start.
// ---------------------------------------------------------------------------

// benchFleet boots n in-process nodes over one schema directory and
// returns their base URLs. n == 1 serves the bare handler (no cluster
// wrap) so the single-node leg prices the server alone; n > 1 wraps
// each node in proxy-mode routing, so requests landing on a non-owner
// pay the forward hop — exactly what a round-robin client sees against
// a real fleet.
func benchFleet(b *testing.B, dir string, n int) []string {
	b.Helper()
	servers := make([]*httptest.Server, n)
	addrs := make([]string, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		addrs[i] = servers[i].Listener.Addr().String()
	}
	for i, ts := range servers {
		reg := registry.New(dir, nil)
		if _, err := reg.Reload(); err != nil {
			b.Fatal(err)
		}
		met := &obs.Metrics{}
		srv := server.New(server.Config{Registry: reg, Metrics: met})
		if n == 1 {
			ts.Config.Handler = srv.Handler()
		} else {
			node, err := cluster.New(cluster.Config{
				Self:     addrs[i],
				Peers:    addrs,
				Registry: reg,
				Metrics:  met,
			})
			if err != nil {
				b.Fatal(err)
			}
			ts.Config.Handler = node.Wrap(srv.Handler())
		}
		ts.Start()
		b.Cleanup(ts.Close)
	}
	targets := make([]string, n)
	for i, a := range addrs {
		targets[i] = "http://" + a
	}
	return targets
}

// loadRequest is one request a load run sends to a node.
type loadRequest struct {
	path        string // e.g. "/v1/validate/po"
	contentType string
	body        []byte
	docs        int // documents the request carries
}

func xmlRequest(path string, doc []byte) loadRequest {
	return loadRequest{path, "application/xml", doc, 1}
}

// batchRequest carries n copies of doc to /v1/validate-batch/{schema}.
func batchRequest(schema string, doc []byte, n int) loadRequest {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = string(doc)
	}
	body, err := json.Marshal(map[string][]string{"documents": docs})
	if err != nil {
		panic(err) // strings marshal unconditionally
	}
	return loadRequest{"/v1/validate-batch/" + schema, "application/json", body, n}
}

// loadOutcome classifies an answer the way an SLO reads it.
type loadOutcome int

const (
	loadOK      loadOutcome = iota
	loadInvalid             // a 200 whose verdict judged a document invalid
	loadShed                // a 429: the server refusing work by design
	loadFailed              // a transport error or any other status
)

// send posts the request to the node at base and classifies the answer.
// The error describes an invalid or failed outcome.
func (r loadRequest) send(c *http.Client, base string) (loadOutcome, error) {
	resp, err := c.Post(base+r.path, r.contentType, bytes.NewReader(r.body))
	if err != nil {
		return loadFailed, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return loadFailed, err
	case resp.StatusCode == http.StatusTooManyRequests:
		return loadShed, nil
	case resp.StatusCode != http.StatusOK:
		return loadFailed, fmt.Errorf("%s%s: status %d: %.200s", base, r.path, resp.StatusCode, data)
	}
	var v struct {
		Valid   any `json:"valid"`   // a verdict, or a batch's count of valid documents
		Invalid int `json:"invalid"` // a batch's count of invalid documents
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return loadFailed, fmt.Errorf("%s%s: %v", base, r.path, err)
	}
	if v.Valid == false || v.Invalid > 0 {
		return loadInvalid, fmt.Errorf("%s%s: invalid verdict: %.200s", base, r.path, data)
	}
	return loadOK, nil
}

// BenchmarkE17_ClusterServe sends b.N requests from 8 concurrent
// clients to a single node and to a 3-node fleet, per document and
// batched. ns/op is wall time per REQUEST (a batch request carries 16
// documents, and so do its bytes — read the docs/s extra metric for
// per-document throughput); p50/p99-ns are client-observed latency
// quantiles from the run's histogram. The nodes=3 legs include the
// proxy hop for the ~2/3 of round-robin requests that land on a
// non-owner.
func BenchmarkE17_ClusterServe(b *testing.B) {
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "po.xsd"), []byte(schemas.PurchaseOrderXSD), 0o644); err != nil {
		b.Fatal(err)
	}
	doc := largePOSource(10)
	legs := []struct {
		name string
		req  loadRequest
	}{
		{"validate", xmlRequest("/v1/validate/po", doc)},
		{"batch16", batchRequest("po", doc, 16)},
	}
	const clients = 8
	for _, nodes := range []int{1, 3} {
		for _, leg := range legs {
			b.Run(fmt.Sprintf("%s/nodes=%d", leg.name, nodes), func(b *testing.B) {
				targets := benchFleet(b, dir, nodes)
				tr := &http.Transport{MaxIdleConnsPerHost: clients}
				b.Cleanup(tr.CloseIdleConnections)
				client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
				b.SetBytes(int64(leg.req.docs * len(doc)))
				var (
					lat  obs.Histogram
					next atomic.Int64
					errs [clients]error
					wg   sync.WaitGroup
				)
				b.ResetTimer()
				start := time.Now()
				for w := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
							begin := time.Now()
							out, err := leg.req.send(client, targets[n%int64(len(targets))])
							lat.Observe(time.Since(begin))
							if out != loadOK && errs[w] == nil {
								errs[w] = fmt.Errorf("outcome %d: %v", out, err)
							}
						}
					}()
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				snap := lat.Snapshot()
				b.ReportMetric(float64(snap.P50Ns), "p50-ns")
				b.ReportMetric(float64(snap.P99Ns), "p99-ns")
				b.ReportMetric(float64(b.N*leg.req.docs)/elapsed.Seconds(), "docs/s")
			})
		}
	}
}

// BenchmarkE17_ColdStartSharedParse prices a registry cold start over a
// directory where 32 entries all import one shared library — the shape
// the per-reload DOM cache exists for: the library is parsed once per
// reload, not once per importer.
func BenchmarkE17_ColdStartSharedParse(b *testing.B) {
	dir := b.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "lib"), 0o755); err != nil {
		b.Fatal(err)
	}
	// A library big enough that parsing it is a measurable share of an
	// entry's compile cost.
	var lib strings.Builder
	lib.WriteString(`<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:benchlib">
  <xsd:complexType name="Meta"><xsd:sequence><xsd:element name="id" type="xsd:string"/></xsd:sequence></xsd:complexType>`)
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&lib, `
  <xsd:complexType name="T%02d"><xsd:sequence><xsd:element name="a" type="xsd:string"/><xsd:element name="b" type="xsd:int" minOccurs="0"/></xsd:sequence><xsd:attribute name="k" type="xsd:string"/></xsd:complexType>`, i)
	}
	lib.WriteString("\n</xsd:schema>\n")
	if err := os.WriteFile(filepath.Join(dir, "lib", "common.xsd"), []byte(lib.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		src := fmt.Sprintf(`<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:bench%02d"
            xmlns:l="urn:benchlib" elementFormDefault="qualified">
  <xsd:import namespace="urn:benchlib" schemaLocation="lib/common.xsd"/>
  <xsd:element name="doc"><xsd:complexType><xsd:sequence><xsd:element name="meta" type="l:Meta"/></xsd:sequence></xsd:complexType></xsd:element>
</xsd:schema>
`, i)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("bench%02d.xsd", i)), []byte(src), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reg := registry.New(dir, nil)
			if _, err := reg.Reload(); err != nil {
				b.Fatal(err)
			}
			if len(reg.List()) != 32 {
				b.Fatalf("cold start compiled %d entries, want 32", len(reg.List()))
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E18 — deep and wide documents: cost per node, not per ancestor.
// ---------------------------------------------------------------------------

// BenchmarkE18_DeepAndWide prices the input classes whose cost used to grow
// with nesting depth or attribute count: parsing and validating a chain of
// nested elements at three depths (linear cost keeps time per level flat),
// each alone, streamed, and in dom-mode as /v1/validate runs it
// (Validator.Parse, ValidateDocument, Release),
// streaming a tag with 2,000 undeclared attributes, tokenizing a chain
// that declares a new namespace prefix at every level, validating a chain
// with an xsi:type at every level, and streaming a wide tag inside an
// xs:key element, whose field the identity tracker reads from the tag's
// attributes as it passes.
func BenchmarkE18_DeepAndWide(b *testing.B) {
	compile := func(src string) *validator.Validator {
		s, err := xsd.ParseString(src, nil)
		if err != nil {
			b.Fatal(err)
		}
		return validator.New(s, nil)
	}
	chain, po := compile(chainXSD), compile(schemas.PurchaseOrderXSD)
	for _, depth := range []int{1000, 2000, 3000} {
		src := hostileChain(depth, bareLevel)
		doc, err := dom.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("parse/chain=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := dom.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				d.Release()
			}
		})
		b.Run(fmt.Sprintf("validate/chain=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !chain.ValidateDocument(doc).OK() {
					b.Fatal("verdict flipped")
				}
			}
		})
		b.Run(fmt.Sprintf("stream/chain=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !chain.Stream().ValidateBytes(src).OK() {
					b.Fatal("verdict flipped")
				}
			}
		})
		b.Run(fmt.Sprintf("dom-mode/chain=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := chain.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				if !chain.ValidateDocument(d).OK() {
					b.Fatal("verdict flipped")
				}
				d.Release()
			}
		})
	}
	wide := wideOrder(2000, "")
	b.Run("stream/attrs=2000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if po.Stream().ValidateBytes(wide).OK() {
				b.Fatal("verdict flipped")
			}
		}
	})
	for _, depth := range []int{5000, 10000, 20000} {
		src := hostileChain(depth, newPrefix)
		b.Run(fmt.Sprintf("tokenize/xmlns-chain=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := xmlparser.Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, depth := range []int{5000, 10000} {
		src := hostileChain(depth, xsiTypeLevel)
		doc, err := dom.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("validate/xsi-type-chain=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !chain.ValidateDocument(doc).OK() {
					b.Fatal("verdict flipped")
				}
			}
		})
		b.Run(fmt.Sprintf("stream/xsi-type-chain=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !chain.Stream().ValidateBytes(src).OK() {
					b.Fatal("verdict flipped")
				}
			}
		})
	}
	keyed, wideKey := compile(keyXSD), wideKeyed(20000)
	b.Run("stream/keyed-attrs=20000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !keyed.Stream().ValidateBytes(wideKey).OK() {
				b.Fatal("verdict flipped")
			}
		}
	})
}
