package repro

// Bounded cost on hostile input. Deep chains, wide tags and long sibling
// runs are generated here and driven through every validation entry point
// — DOM parse+validate, the streaming walk, and bind's DOM and streaming
// decoders. Each must return the expected verdict (or a typed parse
// error) while allocating a bounded number of bytes per input byte, and
// for the chains the allocation must grow linearly with depth.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/validator"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// chainXSD is the recursive schema N = sequence(n:N?): a chain of nested
// elements is valid at any depth.
const chainXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="n" type="N"/>
  <xsd:complexType name="N">
    <xsd:sequence><xsd:element name="n" type="N" minOccurs="0"/></xsd:sequence>
  </xsd:complexType>
</xsd:schema>`

// chainNSXSD is chainXSD in the target namespace "u", its local elements
// qualified: the chain of prefixedChain.
const chainNSXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" xmlns="u" targetNamespace="u" elementFormDefault="qualified">
  <xsd:element name="n" type="N"/>
  <xsd:complexType name="N">
    <xsd:sequence><xsd:element name="n" type="N" minOccurs="0"/></xsd:sequence>
  </xsd:complexType>
</xsd:schema>`

// listXSD is a flat list of integers.
const listXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="list">
    <xsd:complexType>
      <xsd:sequence><xsd:element name="n" type="xsd:int" maxOccurs="unbounded"/></xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>`

// hostileChain nests depth <n> elements, level i opening with attrs(i).
func hostileChain(depth int, attrs func(level int) string) []byte {
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<n" + attrs(i) + ">")
	}
	sb.WriteString(strings.Repeat("</n>", depth))
	return []byte(sb.String())
}

// bareLevel and newPrefix are hostileChain levels: a bare <n>, and an <n>
// declaring a new prefix, so every level has all earlier ones in scope.
func bareLevel(int) string { return "" }

func newPrefix(level int) string { return fmt.Sprintf(` xmlns:p%d="u"`, level) }

// prefixedChain nests depth elements in namespace "u", each named with a
// prefix it declares itself: <p0:n xmlns:p0="u"><p1:n xmlns:p1="u">...
func prefixedChain(depth int) []byte {
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, `<p%d:n xmlns:p%d="u">`, i, i)
	}
	for i := depth - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, `</p%d:n>`, i)
	}
	return []byte(sb.String())
}

// xsiTypeLevel is a hostileChain level that names its type with an
// unprefixed xsi:type, resolved against the default namespace — which
// nothing declares — past one prefix declaration per level.
func xsiTypeLevel(level int) string {
	if level == 0 {
		return ` xmlns:x="` + xsd.XSINamespace + `" xmlns:a="u" x:type="N"`
	}
	return ` xmlns:a="u" x:type="N"`
}

// keyXSD puts an xs:key on <keyed>, whose <item> children take any
// attributes: the validation machine selects each <item> and reads its id
// from the start tag's attributes as the tokens pass.
const keyXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="keyed">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="item" maxOccurs="unbounded">
          <xsd:complexType>
            <xsd:attribute name="id" type="xsd:string" use="required"/>
            <xsd:anyAttribute processContents="skip"/>
          </xsd:complexType>
        </xsd:element>
      </xsd:sequence>
    </xsd:complexType>
    <xsd:key name="itemKey">
      <xsd:selector xpath="item"/>
      <xsd:field xpath="@id"/>
    </xsd:key>
  </xsd:element>
</xsd:schema>`

// uniqueChainXSD puts an xs:unique over every descendant <n> of <r>, whose
// <n> elements nest: the selector's .// step walks the whole chain.
const uniqueChainXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="r">
    <xsd:complexType>
      <xsd:sequence><xsd:element name="n" type="IDN" minOccurs="0"/></xsd:sequence>
    </xsd:complexType>
    <xsd:unique name="ids">
      <xsd:selector xpath=".//n"/>
      <xsd:field xpath="@id"/>
    </xsd:unique>
  </xsd:element>
  <xsd:complexType name="IDN">
    <xsd:sequence><xsd:element name="n" type="IDN" minOccurs="0"/></xsd:sequence>
    <xsd:attribute name="id" type="xsd:string"/>
  </xsd:complexType>
</xsd:schema>`

// uniqueChain nests depth <n id="i"> elements under <r>.
func uniqueChain(depth int) []byte {
	return append(append([]byte("<r>"), hostileChain(depth, func(i int) string { return fmt.Sprintf(` id="%d"`, i) })...), "</r>"...)
}

// nestedUniqueXSD puts an xs:unique over every descendant <sec> on the
// recursive <sec> itself: in a chain, each level opens a scope that
// selects every level below it.
const nestedUniqueXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="sec">
    <xsd:complexType>
      <xsd:sequence><xsd:element ref="sec" minOccurs="0"/></xsd:sequence>
      <xsd:attribute name="id" type="xsd:string"/>
    </xsd:complexType>
    <xsd:unique name="ids">
      <xsd:selector xpath=".//sec"/>
      <xsd:field xpath="@id"/>
    </xsd:unique>
  </xsd:element>
</xsd:schema>`

// nestedChain nests depth <sec id="i"> elements.
func nestedChain(depth int) []byte {
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, `<sec id="%d">`, i)
	}
	sb.WriteString(strings.Repeat("</sec>", depth))
	return []byte(sb.String())
}

// wideKeyed puts n empty attributes x0..x(n-1) on an <item> under <keyed>.
func wideKeyed(n int) []byte {
	var sb strings.Builder
	sb.WriteString(`<keyed><item id="a"`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, ` x%d=""`, i)
	}
	sb.WriteString(`/><item id="b"/></keyed>`)
	return []byte(sb.String())
}

// wideOrder puts n attributes x0..x(n-1) on the purchase order's root,
// followed by extra.
func wideOrder(n int, extra string) []byte {
	var sb strings.Builder
	sb.WriteString("<purchaseOrder")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, ` x%d="%d"`, i, i)
	}
	sb.WriteString(extra)
	return []byte(strings.Replace(schemas.PurchaseOrderDoc, "<purchaseOrder", sb.String(), 1))
}

// siblingList writes n <n> children, the last bad of them not integers.
func siblingList(n, bad int) []byte {
	var sb strings.Builder
	sb.WriteString("<list>")
	for i := 0; i < n; i++ {
		if i >= n-bad {
			sb.WriteString("<n>x</n>")
		} else {
			sb.WriteString("<n>1</n>")
		}
	}
	sb.WriteString("</list>")
	return []byte(sb.String())
}

// hostileEntries are the entry points, each reduced to its verdict.
var hostileEntries = []struct {
	name string
	run  func(s *xsd.Schema, b *bind.Binder, src []byte) *validator.Result
}{
	{"dom", func(s *xsd.Schema, _ *bind.Binder, src []byte) *validator.Result {
		_, res := validator.ValidateBytes(s, src)
		return res
	}},
	{"stream", func(_ *xsd.Schema, b *bind.Binder, src []byte) *validator.Result {
		return b.Validator().Stream().ValidateBytes(src)
	}},
	{"bind", func(_ *xsd.Schema, b *bind.Binder, src []byte) *validator.Result {
		val, res := b.DecodeBytes(src)
		if res.OK() && val == nil {
			return &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: "valid document decoded to nil"}}}
		}
		return res
	}},
	{"bind-stream", func(_ *xsd.Schema, b *bind.Binder, src []byte) *validator.Result {
		val, res, err := b.DecodeStreamBytes(src)
		if err != nil || (res.OK() && val == nil) {
			return &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: fmt.Sprintf("decode: %v", err)}}}
		}
		return res
	}},
}

// maxBytesPerInputByte bounds what any entry point may allocate per input
// byte on the hostile corpus (the largest reading is about 290, bind's
// decoders on the 100,000-attribute tag).
const maxBytesPerInputByte = 400

// cost runs f and returns the bytes it allocated and the time it took.
func cost(f func()) (uint64, time.Duration) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, took
}

// TestHostileCorpusBoundedCost drives the hostile corpus through every
// entry point, checking verdicts and bytes allocated per input byte. Inputs
// with a scale are also run smaller: doubling the scale may multiply
// allocation by at most 2.5, and quadrupling it time by at most 8 — a
// quadratic term that allocates nothing, like an ancestor walk, shows up
// only in the time.
func TestHostileCorpusBoundedCost(t *testing.T) {
	if testing.Short() {
		t.Skip("hostile corpus is large")
	}
	compile := func(src string) *bind.Binder {
		s, err := xsd.ParseString(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		return bind.New(s, nil)
	}
	chain, po, list, keyed := compile(chainXSD), compile(schemas.PurchaseOrderXSD), compile(listXSD), compile(keyXSD)
	uniqueNested, chainNS, nestedScopes := compile(uniqueChainXSD), compile(chainNSXSD), compile(nestedUniqueXSD)
	valid := func(t *testing.T, res *validator.Result) {
		if !res.OK() {
			t.Errorf("want valid, got %v", res.Violations[0])
		}
	}
	for _, tc := range []struct {
		name  string
		b     *bind.Binder
		src   func(scale int) []byte
		scale int // > 0: also checked for linear growth in scale
		// pairs marks work quadratic in scale by definition: the time may
		// grow with its square, the allocation still only linearly.
		pairs   bool
		verdict func(t *testing.T, res *validator.Result)
	}{
		{name: "chain", b: chain, scale: 100000,
			src:     func(d int) []byte { return hostileChain(d, bareLevel) },
			verdict: valid},
		{name: "xmlns chain", b: chain, scale: 50000,
			src:     func(d int) []byte { return hostileChain(d, newPrefix) },
			verdict: valid},
		{name: "xmlns chain using each prefix", b: chainNS, scale: 36000,
			src:     prefixedChain,
			verdict: valid},
		{name: "xsi:type chain", b: chain, scale: 40000,
			src:     func(d int) []byte { return hostileChain(d, xsiTypeLevel) },
			verdict: valid},
		{name: "xs:unique over a .// chain", b: uniqueNested, scale: 20000,
			src:     uniqueChain,
			verdict: valid},
		{name: "xs:unique on each level of a chain", b: nestedScopes, scale: 3000, pairs: true,
			src:     nestedChain,
			verdict: valid},
		{name: "100,000 attributes under an xs:key", b: keyed, scale: 100000,
			src:     wideKeyed,
			verdict: valid},
		{name: "2,000 undeclared attributes", b: po,
			src: func(int) []byte { return wideOrder(2000, "") },
			verdict: func(t *testing.T, res *validator.Result) {
				want := validator.Violation{Path: "/purchaseOrder", Msg: `attribute "x0" is not declared for this element`}
				if len(res.Violations) != 100 || res.Violations[0] != want {
					t.Errorf("want 100 violations starting with %v, got %d: %v", want, len(res.Violations), res.Violations)
				}
			}},
		{name: "2,000 attributes with a late duplicate", b: po,
			src: func(int) []byte { return wideOrder(2000, ` x0="again"`) },
			verdict: func(t *testing.T, res *validator.Result) {
				if len(res.Violations) != 1 || res.Violations[0].Path != "/" ||
					!strings.Contains(res.Violations[0].Msg, `duplicate attribute "x0" in <purchaseOrder>`) {
					t.Errorf("want the duplicate-attribute parse error, got %v", res.Violations)
				}
			}},
		{name: "20,000 siblings, last 100 invalid", b: list,
			src: func(int) []byte { return siblingList(20000, 100) },
			verdict: func(t *testing.T, res *validator.Result) {
				n := len(res.Violations)
				if n != 100 || res.Violations[0].Path != "/list/n[19901]" || res.Violations[n-1].Path != "/list/n[20000]" {
					t.Errorf("want 100 violations at /list/n[19901] ... /list/n[20000], got %d: %v", n, res.Violations)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src(tc.scale)
			if len(src) > 1500000 {
				t.Fatalf("input is %d bytes, over the corpus limit", len(src))
			}
			for _, e := range hostileEntries {
				var res *validator.Result
				run := func(src []byte) func() {
					return func() { res = e.run(tc.b.Schema(), tc.b, src) }
				}
				bytes, took := cost(run(src))
				perByte := float64(bytes) / float64(len(src))
				t.Logf("%s: %.1f bytes allocated per input byte, %v", e.name, perByte, took)
				tc.verdict(t, res)
				if perByte > maxBytesPerInputByte {
					t.Errorf("%s: %.1f bytes allocated per input byte, bound %d", e.name, perByte, maxBytesPerInputByte)
				}
				if tc.scale == 0 {
					continue
				}
				// Allocation is compared at half scale. Time is compared at
				// quarter scale, where linear reads 4 and quadratic 16, and
				// each side keeps its faster run, so one stall on a shared
				// host does not decide the ratio.
				fullBytes, fullTook := cost(run(src))
				halfBytes, _ := cost(run(tc.src(tc.scale / 2)))
				quarter := tc.src(tc.scale / 4)
				_, qTook := cost(run(quarter))
				_, qAgain := cost(run(quarter))
				allocRatio := float64(fullBytes) / float64(halfBytes)
				timeRatio := min(took, fullTook).Seconds() / min(qTook, qAgain).Seconds()
				t.Logf("%s: allocation x%.2f at double scale, time x%.2f at quadruple scale", e.name, allocRatio, timeRatio)
				timeBound := 8.0
				if tc.pairs {
					timeBound = 32
				}
				if allocRatio > 2.5 || timeRatio > timeBound {
					t.Errorf("%s: allocation ratio %.2f (bound 2.5), time ratio %.2f (bound %g)", e.name, allocRatio, timeRatio, timeBound)
				}
			}
		})
	}
	// The parse error is typed for direct dom.Parse callers.
	var se *xmlparser.SyntaxError
	if _, err := dom.Parse(wideOrder(2000, ` x0="again"`)); !errors.As(err, &se) {
		t.Errorf("dom.Parse: want a *xmlparser.SyntaxError, got %v", err)
	}
}

// pairsXSD is the interleaving model (a, b)*: canonical JSON sends it as
// two grouped arrays, which /v1/encode must interleave again.
const pairsXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="pairs">
    <xsd:complexType>
      <xsd:sequence minOccurs="0" maxOccurs="unbounded">
        <xsd:element name="a" type="xsd:int"/>
        <xsd:element name="b" type="xsd:int"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>`

// groupedPairs is n (a, b) pairs as canonical JSON: all a's, then all b's.
func groupedPairs(n int) []byte {
	var a, b strings.Builder
	for i := 0; i < n; i++ {
		sep := ","
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(&a, "%s%d", sep, i)
		fmt.Fprintf(&b, "%s%d", sep, -i)
	}
	return []byte(`{"$element":"pairs","a":[` + a.String() + `],"b":[` + b.String() + `]}`)
}

// TestHostileJSONBoundedCost drives grouped (a, b)* arrays through the
// encode path, FromJSON then Marshal, and bounds its growth as
// TestHostileCorpusBoundedCost does: quadrupling the pairs may multiply
// the time by at most 8. The output must interleave the pairs.
func TestHostileJSONBoundedCost(t *testing.T) {
	if testing.Short() {
		t.Skip("hostile corpus is large")
	}
	s, err := xsd.ParseString(pairsXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := bind.New(s, nil)
	const scale = 20000
	var out []byte
	run := func(n int) func() {
		src := groupedPairs(n)
		return func() {
			v, err := b.FromJSON(src)
			if err != nil {
				t.Fatal(err)
			}
			if out, err = b.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	bytes, took := cost(run(scale))
	if want := "<pairs><a>0</a><b>0</b><a>1</a><b>-1</b><a>2</a>"; !strings.HasPrefix(string(out), want) {
		t.Fatalf("output starts %.60q, want %q", out, want)
	}
	t.Logf("%d pairs: %.1f bytes allocated per input byte, %v", scale, float64(bytes)/float64(len(groupedPairs(scale))), took)
	_, fullTook := cost(run(scale))
	_, qTook := cost(run(scale / 4))
	_, qAgain := cost(run(scale / 4))
	timeRatio := min(took, fullTook).Seconds() / min(qTook, qAgain).Seconds()
	t.Logf("time x%.2f at quadruple scale", timeRatio)
	if timeRatio > 8 {
		t.Errorf("time ratio %.2f (bound 8)", timeRatio)
	}
}

// TestDeepChainBytesPerLevel bounds what one level of a 3,000-deep chain
// allocates on each path a deep document takes: dom.Parse, ValidateDocument
// on the parsed tree, the streaming walk, and the dom-mode path of
// /v1/validate (Validator.Parse, ValidateDocument, Release). Each bound is
// the reading on the 2-vCPU reference host plus about 25%; before the
// decoder's open-element entries and the machine's frames were compacted
// the paths read 470, 529, 969 and 999 bytes per level.
func TestDeepChainBytesPerLevel(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled values at random")
	}
	s, err := xsd.ParseString(chainXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := validator.New(s, nil)
	const depth = 3000
	src := hostileChain(depth, bareLevel)
	doc, err := dom.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Release()
	valid := func(res *validator.Result) {
		if !res.OK() {
			t.Fatalf("want valid, got %v", res.Violations[0])
		}
	}
	for _, tc := range []struct {
		name  string
		bound float64 // bytes per level
		run   func()
	}{
		{"dom.Parse", 120, func() {
			d, err := dom.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			d.Release()
		}},
		{"ValidateDocument", 245, func() { valid(v.ValidateDocument(doc)) }},
		{"Stream().ValidateBytes", 325, func() { valid(v.Stream().ValidateBytes(src)) }},
		{"dom-mode", 365, func() {
			d, err := v.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			valid(v.ValidateDocument(d))
			d.Release()
		}},
	} {
		tc.run() // warm the pools and the content models' DFA
		tc.run()
		perLevel := math.Inf(1)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tc.run()
			runtime.ReadMemStats(&after)
			perLevel = min(perLevel, float64(after.TotalAlloc-before.TotalAlloc)/depth)
		}
		t.Logf("%s: %.0f bytes allocated per level", tc.name, perLevel)
		if perLevel > tc.bound {
			t.Errorf("%s: %.0f bytes allocated per level, bound %.0f", tc.name, perLevel, tc.bound)
		}
	}
}
