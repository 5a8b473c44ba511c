package repro

// E15 — differential testing of intra-document parallel validation
// against sequential validation. ParallelValidate must reproduce
// ValidateDocument's verdicts byte-exactly — same violations, same
// order, same paths and message text — at every worker count, over every
// bundled schema, the mutation corpora, and arbitrary fuzzed bytes. The
// performance side of E15 (speedup and tokenizer allocation) lives in
// BenchmarkE15.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// parallelWorkerCounts are the pool sizes every differential case runs
// at: GOMAXPROCS default, minimal split, odd, and oversubscribed.
var parallelWorkerCounts = []int{0, 2, 3, 8}

// diffParallel validates one instance sequentially and at every worker
// count, asserting identical results. Malformed input goes through the
// one-step entry points on both sides.
func diffParallel(t *testing.T, schema *xsd.Schema, label, src string) {
	t.Helper()
	doc, domRes := validator.ValidateBytes(schema, []byte(src))
	if doc == nil {
		_, parRes := validator.ParallelValidateBytes(schema, []byte(src), 4)
		assertSameResult(t, label+" (malformed)", domRes, parRes)
		return
	}
	v := validator.New(schema, nil)
	for _, w := range parallelWorkerCounts {
		parRes := v.ParallelValidate(doc, w)
		assertSameResult(t, fmt.Sprintf("%s (workers=%d)", label, w), domRes, parRes)
	}
}

// forceTinySplits lowers the split threshold so the hand-sized corpus
// documents actually exercise the worker pool and seam join (at the
// default ParallelMinFanout they would all take the sequential path).
func forceTinySplits(t *testing.T) {
	t.Helper()
	old := validator.ParallelMinFanout
	validator.ParallelMinFanout = 2
	t.Cleanup(func() { validator.ParallelMinFanout = old })
}

// TestParallelMatchesSequential replays the full hand-curated E8
// differential corpus through the parallel walk.
func TestParallelMatchesSequential(t *testing.T) {
	forceTinySplits(t)
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := xsd.ParseString(tc.xsdSrc, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			for label, src := range tc.instances {
				diffParallel(t, schema, label, src)
			}
		})
	}
}

// TestParallelMatchesSequentialOnMutants replays the generator-produced
// purchase order mutants (both corpora) through the parallel walk.
func TestParallelMatchesSequentialOnMutants(t *testing.T) {
	forceTinySplits(t)
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	for _, m := range poMutations {
		diffParallel(t, schema, m.name, m.xmlOutput)
	}
	ops := []string{"remove", "duplicate", "rename", "bogus-attr", "inject-text"}
	for _, op := range ops {
		for idx := 0; ; idx++ {
			src, ok := mutateDoc(t, schemas.PurchaseOrderDoc, idx, op)
			if !ok {
				if idx == 0 {
					continue
				}
				break
			}
			diffParallel(t, schema, fmt.Sprintf("%s[%d]", op, idx), src)
		}
	}
}

// TestParallelLargeOrder scales the paper's Fig. 1 instance to thousands
// of depth-1-reachable items with scattered defects — the shape the
// worker pool is built for — and checks parity at every worker count.
func TestParallelLargeOrder(t *testing.T) {
	schema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	diffParallel(t, schema, "large order", syntheticOrder(3000, true))
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

// FuzzParallelValidate drives arbitrary bytes through the sequential and
// parallel walks under two schemas, demanding identical verdicts. Same
// discipline as FuzzStreamMatchesDOM.
func FuzzParallelValidate(f *testing.F) {
	f.Add([]byte(schemas.PurchaseOrderDoc))
	f.Add([]byte(`<doc><node id="a"/><node id="a"/><node ref="a"/></doc>`))
	f.Add([]byte(`<purchaseOrder><items><item partNum="1"><quantity>x</quantity></item></items></purchaseOrder>`))
	f.Add([]byte(`<report><title>t</title><summary>s</summary><entry id="a"><when>2001-01-01</when></entry><entry id="a"><when>x</when></entry></report>`))
	poSchema, err := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	if err != nil {
		f.Fatal(err)
	}
	cgSchema, err := xsd.ParseString(schemas.ComplexGroupsXSD, nil)
	if err != nil {
		f.Fatal(err)
	}
	validator.ParallelMinFanout = 2 // hand-sized fuzz inputs must still split
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		doc, err := dom.Parse(src)
		if err != nil {
			return
		}
		for _, schema := range []*xsd.Schema{poSchema, cgSchema} {
			v := validator.New(schema, nil)
			want := v.ValidateDocument(doc)
			for _, w := range []int{2, 8} {
				got := v.ParallelValidate(doc, w)
				assertSameResult(t, fmt.Sprintf("workers=%d", w), want, got)
			}
		}
	})
}
