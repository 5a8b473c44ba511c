package repro

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// tenantPoolXSD is a tenant schema of the small-tenants workload's shape,
// with its common part declared in place.
const tenantPoolXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t"
            xmlns:t="urn:t" elementFormDefault="qualified">
  <xsd:element name="doc">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="meta" type="t:Meta"/>
        <xsd:element name="body" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
      <xsd:attribute name="lang" type="xsd:language"/>
    </xsd:complexType>
  </xsd:element>
  <xsd:complexType name="Meta">
    <xsd:sequence>
      <xsd:element name="id" type="xsd:string"/>
      <xsd:element name="rev" type="xsd:positiveInteger" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>`

// tenantPoolDoc is a small-tenants document: its id, revision and bodies
// vary with i.
func tenantPoolDoc(i int) []byte {
	return []byte(fmt.Sprintf(`<t:doc xmlns:t="urn:t" lang="en"><t:meta><t:id>tenant-%d</t:id><t:rev>%d</t:rev></t:meta>`+
		`<t:body>first body of %d</t:body><t:body>second</t:body></t:doc>`, i, i%7, i))
}

// TestPooledDecodersConcurrent runs dom.Parse, the stream validator's
// ValidateReader and bind's DecodeReader side by side over one schema, on
// valid, invalid, malformed and entity-declaring documents, and requires
// every answer to equal the one computed alone. Under -race it also holds
// the decoder pool to handing each decoder to one goroutine at a time.
func TestPooledDecodersConcurrent(t *testing.T) {
	s, err := xsd.ParseString(tenantPoolXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := bind.New(s, nil)
	sv := b.Validator().Stream()
	docs := [][]byte{
		tenantPoolDoc(1),
		tenantPoolDoc(2),
		[]byte(`<t:doc xmlns:t="urn:t"><t:meta><t:id>x</t:id><t:rev>0</t:rev></t:meta></t:doc>`),
		[]byte(`<t:doc xmlns:t="urn:t"><t:meta><t:id>x</t:meta></t:doc>`),
		[]byte(`<!DOCTYPE t:doc [<!ENTITY who "ent">]><t:doc xmlns:t="urn:t"><t:meta><t:id>&who;</t:id></t:meta></t:doc>`),
		[]byte(`<t:doc xmlns:t="urn:t"><t:meta><t:id>&who;</t:id></t:meta></t:doc>`),
	}
	type answer struct{ tree, verdict, decoded string }
	run := func(src []byte) answer {
		var a answer
		if doc, err := dom.Parse(src); err != nil {
			a.tree = err.Error()
		} else {
			var buf bytes.Buffer
			if err := dom.Serialize(&buf, doc, nil); err != nil {
				a.tree = err.Error()
			}
			a.tree = buf.String()
		}
		a.verdict = fmt.Sprint(sv.ValidateReader(bytes.NewReader(src)).Violations)
		v, res, err := b.DecodeReader(context.Background(), bytes.NewReader(src))
		a.decoded = fmt.Sprint(res.Violations, err)
		if v != nil {
			a.decoded += string(b.JSON(v))
		}
		return a
	}
	want := make([]answer, len(docs))
	for i, src := range docs {
		want[i] = run(src)
	}
	if !strings.Contains(want[5].verdict, `undeclared entity "who"`) {
		t.Fatalf("entity reference without a declaration: %s", want[5].verdict)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (g + i) % len(docs)
				if got := run(docs[k]); got != want[k] {
					t.Errorf("goroutine %d, document %d: got %+v, want %+v", g, k, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmStreamValidateAllocs bounds what validating a small-tenants
// document through the stream validator allocates once the decoder and
// machine pools are warm. Before decoders were pooled it allocated 34
// times per document; a pooled decoder keeps its intern cache, scratch
// slices and namespace scope, and it allocated 6, then 3 once simple
// values were parsed from a view of the text buffer.
func TestWarmStreamValidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled values at random")
	}
	s, err := xsd.ParseString(tenantPoolXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	sv := validator.New(s, nil).Stream()
	src := tenantPoolDoc(3)
	if res := sv.ValidateBytes(src); !res.OK() {
		t.Fatal(res.Violations)
	}
	allocs := testing.AllocsPerRun(200, func() { sv.ValidateBytes(src) })
	t.Logf("%.1f allocations per warm ValidateBytes", allocs)
	if allocs > maxWarmTenantAllocs {
		t.Errorf("%.1f allocations per warm ValidateBytes, bound %d", allocs, maxWarmTenantAllocs)
	}
}

// maxWarmTenantAllocs is TestWarmStreamValidateAllocs's bound: the 6 it
// was set at, with room for a collection emptying the pools mid-run.
const maxWarmTenantAllocs = 8

// TestLargeOrderStreamAllocs bounds what stream validation of the E8
// 1,000-item order allocates. Its 5,000 simple values are parsed from a
// view of their frame's text buffer, not from a copy of it; before that
// the run allocated 2,006 times, nearly all of them those copies.
func TestLargeOrderStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled values at random")
	}
	sv := validator.New(poSchema(t), nil).Stream()
	src := largePOSource(1000)
	if res := sv.ValidateBytes(src); !res.OK() {
		t.Fatal(res.Violations)
	}
	allocs := testing.AllocsPerRun(20, func() { sv.ValidateBytes(src) })
	t.Logf("%.1f allocations per ValidateBytes of the 1,000-item order", allocs)
	if allocs >= 100 {
		t.Errorf("%.1f allocations per ValidateBytes of the 1,000-item order, want fewer than 100", allocs)
	}
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool
