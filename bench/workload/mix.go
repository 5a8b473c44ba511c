package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Op is the endpoint a request goes to.
type Op int

const (
	OpValidate     Op = iota // POST /v1/validate/{schema}
	OpStream                 // POST /v1/validate/{schema}?stream=1
	OpBatch                  // POST /v1/validate-batch/{schema}
	OpDecode                 // POST /v1/decode/{schema}
	OpDecodeStream           // POST /v1/decode/{schema}?stream=1
	OpEncode                 // POST /v1/encode/{schema}
)

var opNames = [...]string{"validate", "stream", "batch", "decode", "decode-stream", "encode"}

func (o Op) String() string { return opNames[o] }

// Path is the request path for schema.
func (o Op) Path(schema string) string {
	switch o {
	case OpStream:
		return "/v1/validate/" + schema + "?stream=1"
	case OpBatch:
		return "/v1/validate-batch/" + schema
	case OpDecode:
		return "/v1/decode/" + schema
	case OpDecodeStream:
		return "/v1/decode/" + schema + "?stream=1"
	case OpEncode:
		return "/v1/encode/" + schema
	}
	return "/v1/validate/" + schema
}

// Mode is the "mode" a JSON verdict for this op must carry.
func (o Op) Mode() string {
	return [...]string{"dom", "stream", "", "decode-dom", "decode-stream", ""}[o]
}

// BatchSize is how many documents one validate-batch request carries.
const BatchSize = 16

// Doc is one generated document with its expected outcome.
type Doc struct {
	XML []byte
	// Valid is the verdict the schema must give; Path is the location of
	// the first violation when it is false.
	Valid bool
	Path  string
	// Order is the model of a valid purchase order, for the bind oracles.
	Order *Order
	// Text marks a text-heavy document (long character data) as opposed
	// to a markup-heavy one.
	Text bool
	// Hostile names the hostile class ("" for ordinary traffic). A hostile
	// document may also be answered with a typed 413 or 422.
	Hostile string
}

// Request is one HTTP request of a pool.
type Request struct {
	ID     int
	Op     Op
	Schema string
	Docs   []*Doc // one, or BatchSize for OpBatch
	Body   []byte
}

// ContentType is the request's Content-Type.
func (r *Request) ContentType() string {
	if r.Op == OpBatch || r.Op == OpEncode {
		return "application/json"
	}
	return "application/xml"
}

// Workload is one traffic mix.
type Workload struct {
	// Rate is the open-loop arrival rate in requests per second, frozen
	// at about a third of what the seed commit sustains on the reference
	// host (2 cores) or lower (README.md gives each one's reason), so the
	// server is busy but its own service time, not queueing in front of
	// the two connections, sets the tail.
	Rate float64
	// MaxPool caps the number of distinct requests generated; the loops
	// cycle through the pool.
	MaxPool int
	gen     func(r *rand.Rand, n int) []*Request
}

// Workloads lists the traffic mixes by name.
var Workloads = map[string]*Workload{
	"large-po":      {Rate: 100, MaxPool: 192, gen: largePO},
	"small-tenants": {Rate: 2000, MaxPool: 4096, gen: smallTenants},
	"bind-rw":       {Rate: 180, MaxPool: 512, gen: bindRW},
	"hostile-mix":   {Rate: 500, MaxPool: 4096, gen: hostileMix},
}

// Names returns the workload names, sorted.
func Names() []string {
	var names []string
	for n := range Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Pool generates n requests (at least 1) from seed. The same seed and n
// give the same requests.
func (w *Workload) Pool(seed int64, n int) []*Request {
	if n < 1 {
		n = 1
	}
	if n > w.MaxPool {
		n = w.MaxPool
	}
	r := rand.New(rand.NewSource(seed))
	reqs := w.gen(r, n)
	for i, q := range reqs {
		q.ID = i
		if q.Body == nil {
			q.Body = body(q)
		}
	}
	return reqs
}

// counts lays out exactly round(n·share) slots of each kind and shuffles
// them, so a mix's proportions hold in every pool and the seed moves only
// which request gets which kind.
func counts(r *rand.Rand, n int, shares ...float64) []int {
	slots := make([]int, 0, n)
	for k, s := range shares {
		c := int(float64(n)*s + 0.5)
		for i := 0; i < c && len(slots) < n; i++ {
			slots = append(slots, k+1)
		}
	}
	for len(slots) < n {
		slots = append(slots, 0)
	}
	r.Shuffle(n, func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return slots
}

func body(q *Request) []byte {
	if q.Op != OpBatch {
		return q.Docs[0].XML
	}
	docs := make([]string, len(q.Docs))
	for i, d := range q.Docs {
		docs[i] = string(d.XML)
	}
	b, err := json.Marshal(map[string][]string{"documents": docs})
	if err != nil {
		panic(err) // a string slice always marshals
	}
	return b
}

// orderDoc builds a purchase order with the given number of lines, broken
// by a random mutation when invalid.
func orderDoc(r *rand.Rand, items int, text, invalid bool) *Doc {
	o := newOrder(r, items, text)
	if !invalid {
		return &Doc{XML: o.xml(mutNone, -1, "", ""), Valid: true, Order: o, Text: text}
	}
	mut := mutation(1 + r.Intn(numPOMutations))
	at := r.Intn(len(o.Items))
	return &Doc{XML: o.xml(mut, at, "", ""), Path: violationPath(mut, at), Text: text}
}

// evenly returns n values spread evenly over [lo, hi], in an order the
// seed shuffles. Sizes drawn this way give every pool the same size
// distribution, so the slowest 1% of a run — the few largest documents —
// does not depend on the seed.
func evenly(r *rand.Rand, n, lo, hi int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = lo + (hi-lo)*(2*i+1)/(2*n)
	}
	r.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// orders builds n purchase orders, half markup-heavy and half text-heavy,
// with line counts spread evenly over [lo, hi] within each style; the
// returned docs are in shuffled order.
func orders(r *rand.Rand, n, lo, hi int, invalidShare float64) []*Doc {
	invalid := counts(r, n, invalidShare)
	docs := make([]*Doc, 0, n)
	for style, count := range []int{n / 2, n - n/2} {
		for _, items := range evenly(r, count, lo, hi) {
			docs = append(docs, orderDoc(r, items, style == 1, invalid[len(docs)] == 1))
		}
	}
	r.Shuffle(n, func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	return docs
}

func tenantDoc(r *rand.Rand, schema string, text, invalid bool) *Doc {
	t := newTenant(r, schema, text)
	if !invalid {
		return &Doc{XML: t.xml(mutNone), Valid: true, Text: text}
	}
	mut := mutRevZero + mutation(r.Intn(numTenMutations))
	return &Doc{XML: t.xml(mut), Path: violationPath(mut, 0), Text: text}
}

// largePO: 300–700-line orders, half markup-heavy and half text-heavy,
// split evenly between the DOM and streaming validators; 3% are invalid.
func largePO(r *rand.Rand, n int) []*Request {
	stream := counts(r, n, 0.5)
	reqs := make([]*Request, n)
	for i, d := range orders(r, n, 300, 700, 0.03) {
		reqs[i] = &Request{Op: []Op{OpValidate, OpStream}[stream[i]], Schema: "po", Docs: []*Doc{d}}
	}
	return reqs
}

// servable is the schema popularity order of the small-document mixes,
// rank 0 most popular: po first, then every tenant in an order the seed
// shuffles. The tenants are alike, so the seed moves which tenant is
// popular but not what the traffic costs; po's documents are larger, so
// it keeps one rank.
func servable(r *rand.Rand) []string {
	names := []string{"po"}
	for i := 0; i < Tenants; i++ {
		names = append(names, TenantName(i))
	}
	r.Shuffle(Tenants, func(i, j int) { names[1+i], names[1+j] = names[1+j], names[1+i] })
	return names
}

// smallDoc is one small document for schema: a 1–5-line order or a
// tenant document.
func smallDoc(r *rand.Rand, schema string, invalid bool) *Doc {
	text := r.Intn(2) == 0
	if schema == "po" {
		return orderDoc(r, 1+r.Intn(5), text, invalid)
	}
	return tenantDoc(r, schema, text, invalid)
}

// smallTraffic is the small-tenants mix: Zipf-popular schemas, 85%
// validate, 5% stream, 10% batches of BatchSize; invalidShare of the
// documents are invalid.
func smallTraffic(r *rand.Rand, n int, invalidShare float64) []*Request {
	names := servable(r)
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(names)-1))
	ops := counts(r, n, 0.05, 0.10)
	reqs := make([]*Request, n)
	for i := range reqs {
		schema := names[zipf.Uint64()]
		q := &Request{Op: []Op{OpValidate, OpStream, OpBatch}[ops[i]], Schema: schema}
		docs := 1
		if q.Op == OpBatch {
			docs = BatchSize
		}
		for d := 0; d < docs; d++ {
			q.Docs = append(q.Docs, smallDoc(r, schema, r.Float64() < invalidShare))
		}
		reqs[i] = q
	}
	return reqs
}

func smallTenants(r *rand.Rand, n int) []*Request { return smallTraffic(r, n, 0.05) }

// bindRW: 50–150-line orders through the bind layer: 40% decode, 20%
// streaming decode, 40% encode of canonical JSON written from the model.
func bindRW(r *rand.Rand, n int) []*Request {
	ops := counts(r, n, 0.2, 0.4)
	reqs := make([]*Request, n)
	for i, d := range orders(r, n, 50, 150, 0) {
		q := &Request{Op: []Op{OpDecode, OpDecodeStream, OpEncode}[ops[i]], Schema: "po", Docs: []*Doc{d}}
		if q.Op == OpEncode {
			q.Body = d.Order.JSON()
		}
		reqs[i] = q
	}
	return reqs
}

// HostileShare is the share of hostile requests in hostile-mix. At 2%,
// with seven in ten of them chains on the DOM walk, the slowest 1% of all
// requests are the deeper DOM chains, whose latency grows smoothly with
// depth. The 99th percentile then reads the depth cost, instead of
// sitting on the edge between two kinds of request and jumping between
// them from run to run.
const HostileShare = 0.02

// hostileMix: valid small-tenants traffic with HostileShare hostile
// requests: chains of depth 1,000–3,000 (70% on the DOM walk, 10% on the
// streaming one), internal-subset entity expansion (10%), 2,000
// attributes (5%) and 4 KB names (5%).
func hostileMix(r *rand.Rand, n int) []*Request {
	reqs := smallTraffic(r, n, 0)
	kinds := counts(r, n, HostileShare*0.7, HostileShare*0.1, HostileShare*0.1, HostileShare*0.05, HostileShare*0.05)
	var chains [2][]int // request indices of DOM and streaming chains
	for i, k := range kinds {
		op := []Op{OpValidate, OpStream}[r.Intn(2)]
		switch k {
		case 1, 2:
			chains[k-1] = append(chains[k-1], i)
		case 3:
			reqs[i] = &Request{Op: op, Schema: "po", Docs: []*Doc{entityDoc(r)}}
		case 4:
			reqs[i] = &Request{Op: op, Schema: "po", Docs: []*Doc{attrsDoc(r)}}
		case 5:
			reqs[i] = &Request{Op: op, Schema: "po", Docs: []*Doc{longNameDoc(r)}}
		}
	}
	for walk, idx := range chains {
		for j, depth := range evenly(r, len(idx), 1000, 3000) {
			reqs[idx[j]] = &Request{Op: []Op{OpValidate, OpStream}[walk], Schema: "chain", Docs: []*Doc{ChainDoc(depth)}}
		}
	}
	return reqs
}

// ChainDoc is a valid chain of depth nested n elements, for chain.xsd.
func ChainDoc(depth int) *Doc {
	var b bytes.Buffer
	b.Grow(7 * depth)
	for i := 0; i < depth; i++ {
		b.WriteString("<n>")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</n>")
	}
	return &Doc{XML: b.Bytes(), Valid: true, Hostile: fmt.Sprintf("chain-%d", depth)}
}

// entityDoc is a valid order whose comment is an internal-subset entity
// expanding ten-fold per level to about 100 KB.
func entityDoc(r *rand.Rand) *Doc {
	o := newOrder(r, 1, false)
	prolog := `<!DOCTYPE purchaseOrder [<!ENTITY a "` + strings.Repeat("expand me ", 10) + `">` +
		`<!ENTITY b "` + strings.Repeat("&a;", 10) + `">` +
		`<!ENTITY c "` + strings.Repeat("&b;", 10) + `">` +
		`<!ENTITY d "` + strings.Repeat("&c;", 10) + `">]>` + "\n"
	src := o.xml(mutNone, -1, prolog, "")
	src = bytes.Replace(src, []byte("</billTo>"), []byte("</billTo><comment>&d;</comment>"), 1)
	return &Doc{XML: src, Valid: true, Hostile: "entity"}
}

// attrsDoc puts 2,000 undeclared attributes on the root.
func attrsDoc(r *rand.Rand) *Doc {
	o := newOrder(r, 1+r.Intn(3), false)
	var attrs strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&attrs, ` x%d="%d"`, i, r.Intn(1000))
	}
	return &Doc{XML: o.xml(mutNone, -1, "", attrs.String()), Path: "/purchaseOrder", Hostile: "attrs"}
}

// longNameDoc adds an undeclared child with a 4 KB name under items.
func longNameDoc(r *rand.Rand) *Doc {
	o := newOrder(r, 1+r.Intn(3), false)
	name := "z" + strings.Repeat(string(rune('a'+r.Intn(26))), 4095)
	src := bytes.Replace(o.xml(mutNone, -1, "", ""), []byte("</items>"), []byte("<"+name+"/></items>"), 1)
	return &Doc{XML: src, Path: "/purchaseOrder/items/" + name, Hostile: "name"}
}
