package validator

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// streamDiff validates src through both paths of the same Validator and
// asserts identical results.
func streamDiff(t *testing.T, v *Validator, label, src string) {
	t.Helper()
	var domRes *Result
	if doc, err := dom.ParseString(src); err != nil {
		domRes = &Result{Violations: []Violation{{Path: "/", Msg: err.Error()}}}
	} else {
		domRes = v.ValidateDocument(doc)
	}
	streamRes := v.Stream().ValidateBytes([]byte(src))
	if len(domRes.Violations) != len(streamRes.Violations) {
		t.Fatalf("%s: dom %d violations, stream %d\n  dom: %v\n  stream: %v",
			label, len(domRes.Violations), len(streamRes.Violations), domRes.Violations, streamRes.Violations)
	}
	for i := range domRes.Violations {
		if domRes.Violations[i] != streamRes.Violations[i] {
			t.Errorf("%s: violation %d diverged:\n  dom:    %v\n  stream: %v",
				label, i, domRes.Violations[i], streamRes.Violations[i])
		}
	}
}

func TestStreamValidatesReader(t *testing.T) {
	v := poValidator(t)
	res := v.Stream().ValidateReader(strings.NewReader(schemas.PurchaseOrderDoc))
	if !res.OK() {
		t.Fatalf("valid document rejected by streaming path: %v", res.Err())
	}
}

func TestStreamRejectsWithDOMMessages(t *testing.T) {
	v := poValidator(t)
	res := v.Stream().ValidateBytes([]byte(
		`<purchaseOrder><shipTo country="US"><street>s</street><name>n</name><city>c</city><state>st</state><zip>1</zip></shipTo><billTo country="US"><name>n</name><street>s</street><city>c</city><state>st</state><zip>1</zip></billTo><items/></purchaseOrder>`))
	if res.OK() {
		t.Fatal("out-of-order children accepted")
	}
	if got := res.Violations[0].Path; got != "/purchaseOrder/shipTo/street" {
		t.Errorf("violation path = %q, want the failing child's path", got)
	}
}

// TestStreamIdentityFallback proves identity-constrained subtrees get the
// same verdicts from the decoder as from a tree: the <order> declaration
// carries key/keyref/unique, which the machine checks on the tokens as
// they pass, whatever their source.
func TestStreamIdentityFallback(t *testing.T) {
	v := icValidator(t)
	for label, src := range map[string]string{
		"valid keys":      `<order><item partNum="100-AA"><sku>s1</sku></item><ref part="100-AA"/></order>`,
		"duplicate key":   `<order><item partNum="100-AA"/><item partNum="100-AA"/></order>`,
		"dangling keyref": `<order><item partNum="100-AA"/><ref part="999-ZZ"/></order>`,
		"missing field":   `<order><item/></order>`,
	} {
		streamDiff(t, v, label, src)
	}
	res := v.Stream().ValidateBytes([]byte(`<order><item partNum="1"/><item partNum="1"/></order>`))
	if res.OK() || !strings.Contains(res.Err().Error(), "duplicate value") {
		t.Errorf("identity constraint not enforced on the decoder's tokens: %v", res.Err())
	}
}

// TestStreamConcurrent drives one shared Validator's streaming path from
// many goroutines (run under -race in the tier-1 extended recipe). The
// schema's compiled content models are the only shared mutable state;
// every run's frames, ID maps and results are private.
func TestStreamConcurrent(t *testing.T) {
	v := poValidator(t)
	sv := v.Stream()
	valid := []byte(schemas.PurchaseOrderDoc)
	invalid := []byte(`<purchaseOrder orderDate="1999-10-20"><bogus/></purchaseOrder>`)
	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if res := sv.ValidateBytes(valid); !res.OK() {
					errs <- fmt.Errorf("goroutine %d: valid doc rejected: %v", id, res.Err())
					return
				}
				if res := sv.ValidateReader(strings.NewReader(schemas.PurchaseOrderDoc)); !res.OK() {
					errs <- fmt.Errorf("goroutine %d: valid doc rejected via reader: %v", id, res.Err())
					return
				}
				if res := sv.ValidateBytes(invalid); res.OK() {
					errs <- fmt.Errorf("goroutine %d: invalid doc accepted", id)
					return
				}
				// Interleave DOM-path runs on the same Validator: both
				// paths step the schema's compiled models.
				doc, perr := dom.ParseString(schemas.PurchaseOrderDoc)
				if perr != nil {
					errs <- perr
					return
				}
				if res := v.ValidateDocument(doc); !res.OK() {
					errs <- fmt.Errorf("goroutine %d: DOM path rejected valid doc: %v", id, res.Err())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// cancelAfterReader cancels a context after n Reads, then keeps serving
// data — modelling a deadline tripping mid-stream rather than a closed
// connection.
type cancelAfterReader struct {
	r      io.Reader
	cancel context.CancelFunc
	reads  int
	after  int
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	c.reads++
	if c.reads == c.after {
		c.cancel()
	}
	if len(p) > 16 {
		p = p[:16] // small reads so cancellation lands mid-document
	}
	return c.r.Read(p)
}

func TestStreamValidateReaderContext(t *testing.T) {
	v := poValidator(t)
	sv := v.Stream()

	t.Run("uncancelled matches ValidateReader", func(t *testing.T) {
		res, err := sv.ValidateReaderContext(context.Background(), strings.NewReader(schemas.PurchaseOrderDoc))
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !res.OK() {
			t.Fatalf("valid document rejected: %v", res.Err())
		}
	})

	t.Run("pre-cancelled returns immediately", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := sv.ValidateReaderContext(ctx, strings.NewReader(schemas.PurchaseOrderDoc))
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Fatalf("partial result returned on cancellation: %+v", res)
		}
	})

	t.Run("cancel mid-stream stops the run", func(t *testing.T) {
		// A document long enough that > ctxCheckEvery tokens remain after
		// the cancellation point.
		var sb strings.Builder
		sb.WriteString(`<purchaseOrder orderDate="1999-10-20"><shipTo country="US"><name>a</name><street>s</street><city>c</city><state>CA</state><zip>1</zip></shipTo><billTo country="US"><name>b</name><street>s</street><city>c</city><state>PA</state><zip>2</zip></billTo><items>`)
		for i := 0; i < 2000; i++ {
			fmt.Fprintf(&sb, `<item partNum="%03d-AB"><productName>p</productName><quantity>1</quantity><USPrice>1.00</USPrice></item>`, i%1000)
		}
		sb.WriteString(`</items></purchaseOrder>`)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		r := &cancelAfterReader{r: strings.NewReader(sb.String()), cancel: cancel, after: 8}
		res, err := sv.ValidateReaderContext(ctx, r)
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if res != nil {
			t.Fatalf("partial result returned on cancellation")
		}
	})
}

// countedXSD holds the two models that once compiled to a backtracking
// interpreter: a five-member xs:all (Card, whose tags hold a unique key)
// and a sequence bounded at 5,000 (Log).
const countedXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="root">
    <xsd:complexType><xsd:sequence>
      <xsd:element name="card" type="Card" minOccurs="0" maxOccurs="unbounded"/>
      <xsd:element name="log" type="Log" minOccurs="0"/>
    </xsd:sequence></xsd:complexType>
  </xsd:element>
  <xsd:complexType name="Card">
    <xsd:all>
      <xsd:element name="a" type="xsd:int"/>
      <xsd:element name="b" type="xsd:string"/>
      <xsd:element name="c" type="xsd:string"/>
      <xsd:element name="d" type="xsd:string" minOccurs="0"/>
      <xsd:element name="tags">
        <xsd:complexType><xsd:sequence>
          <xsd:element name="tag" minOccurs="0" maxOccurs="unbounded">
            <xsd:complexType><xsd:attribute name="k" type="xsd:string"/></xsd:complexType>
          </xsd:element>
        </xsd:sequence></xsd:complexType>
        <xsd:unique name="tagKey">
          <xsd:selector xpath="tag"/>
          <xsd:field xpath="@k"/>
        </xsd:unique>
      </xsd:element>
    </xsd:all>
  </xsd:complexType>
  <xsd:complexType name="Log">
    <xsd:sequence>
      <xsd:element name="e" type="xsd:int" maxOccurs="5000"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>`

// TestCountedModelsStreamInDepth: counted and all-group models step child
// by child, and the identity scope on tags is checked on the tokens as they
// pass, so streaming a document of 5,000 log entries and a card buffers no
// frame: every open element has its frame open, and the identity tracker
// runs only inside tags. The unique on tags still rejects a duplicate.
func TestCountedModelsStreamInDepth(t *testing.T) {
	s, err := xsd.ParseString(countedXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	for _, tc := range []struct{ tags, want string }{
		{`<tag k="x"/><tag k="y"/>`, ""},
		{`<tag k="x"/><tag k="x"/>`, "unique tagKey: duplicate value {x}"},
	} {
		doc := `<root><card><tags>` + tc.tags + `</tags><c>c</c><a>1</a><b>b</b></card><log>` +
			strings.Repeat("<e>1</e>", 5000) + `</log></root>`
		d := xmlparser.NewDecoder([]byte(doc), nil)
		sr := newMachine(v, nil)
		var tok xmlparser.Token
		var open []string
		sawTags := false
		for n := 0; ; n++ {
			if err := d.Next(&tok); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			switch tok.Kind {
			case xmlparser.KindStartElement:
				open = append(open, tok.Name.Local)
			case xmlparser.KindEndElement:
				open = open[:len(open)-1]
			}
			sr.token(&tok)
			if sr.depth != len(open) {
				t.Fatalf("token %d: %d frames open for %d elements", n, sr.depth, len(open))
			}
			inTags := slices.Contains(open, "tags")
			if sr.keys.active() != inTags {
				t.Fatalf("token %d: identity tracker active %v inside %v", n, sr.keys.active(), open)
			}
			sawTags = sawTags || inTags
		}
		if !sawTags {
			t.Error("the document never opened tags")
		}
		sr.finish()
		var got []string
		for _, viol := range render(sr.kids) {
			if !strings.HasSuffix(viol.Path, "/card/tags") {
				t.Errorf("%s: violation at %s, want it on tags", tc.tags, viol.Path)
			}
			got = append(got, viol.Msg)
		}
		if got := strings.Join(got, "\n"); got != tc.want {
			t.Errorf("%s: violations %q, want %q", tc.tags, got, tc.want)
		}
		sr.release()
		d.Release()
	}
}

// attrRecorder keeps the attributes OpenElement reports, by element.
type attrRecorder map[string][]Attr

func (r attrRecorder) OpenElement(e ElementStart) {
	r[e.Name.Local] = append([]Attr(nil), e.Attrs...)
}
func (attrRecorder) CloseElement(*xsdtypes.Value) {}
func (attrRecorder) MixedText(string)             {}
func (attrRecorder) RawElement(xsd.QName, string) {}

// TestEventAttrsCarryParsedValues: OpenElement reports each declared
// attribute with the value the machine parsed it to, and leaves
// wildcard-admitted values, values that failed to parse and the
// attributes of simple-typed elements untyped.
func TestEventAttrsCarryParsedValues(t *testing.T) {
	s, err := xsd.ParseString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r">
    <xsd:complexType>
      <xsd:sequence><xsd:element name="s" type="xsd:string"/></xsd:sequence>
      <xsd:attribute name="n" type="xsd:int"/>
      <xsd:attribute name="bad" type="xsd:int"/>
      <xsd:anyAttribute namespace="##other" processContents="skip"/>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := attrRecorder{}
	res := New(s, nil).Stream().ValidateBytesEvents([]byte(
		`<r xmlns:o="urn:o" n=" 07 " bad="x" o:w="1.0"><s o:k="v">t</s></r>`), rec)
	if res.OK() {
		t.Fatal("bad attribute value accepted")
	}
	for _, tc := range []struct {
		elem, attr string
		typed      bool
		val        string
	}{
		{"r", "n", true, "7"},
		{"r", "bad", false, ""},
		{"r", "w", false, ""},
		{"s", "k", false, ""},
	} {
		i := slices.IndexFunc(rec[tc.elem], func(a Attr) bool { return a.Name.Local == tc.attr })
		if i < 0 {
			t.Errorf("%s/@%s not reported", tc.elem, tc.attr)
			continue
		}
		if a := rec[tc.elem][i]; a.Typed != tc.typed || tc.typed && (a.Val.Kind != xsdtypes.VDecimal || a.Val.String() != tc.val) {
			t.Errorf("%s/@%s = typed %v %v %q; want typed %v %q", tc.elem, tc.attr, a.Typed, a.Val.Kind, a.Val, tc.typed, tc.val)
		}
	}
}

// TestSimpleTextInChunks validates simple-typed elements whose text comes
// in one node or in several (split by comments, processing instructions
// and CDATA): the tree replay keeps a single node's string and joins
// several, as the streaming path joins the decoder's chunks.
func TestSimpleTextInChunks(t *testing.T) {
	schema, err := xsd.ParseString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r"><xs:complexType><xs:sequence>
    <xs:element name="v" maxOccurs="unbounded"><xs:simpleType>
      <xs:restriction base="xs:string"><xs:length value="2"/></xs:restriction>
    </xs:simpleType></xs:element>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>`, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(schema, nil)
	for src, viols := range map[string]int{
		`<r><v>12</v><v><!--c-->12</v><v>12<?pi?></v></r>`:                   0,
		`<r><v>1<!--c-->2</v><v>1<![CDATA[2]]></v><v><![CDATA[1]]>2</v></r>`: 0,
		`<r><v>1<?pi?>2<!--c-->3</v><v>1<!--c--></v></r>`:                    2,
	} {
		doc, err := dom.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		if res := v.ValidateDocument(doc); len(res.Violations) != viols {
			t.Errorf("%s: %d violations, want %d: %v", src, len(res.Violations), viols, res.Violations)
		}
		streamDiff(t, v, src, src)
	}
}
