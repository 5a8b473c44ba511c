// Package ladder prices a workload's documents at each layer of the
// serving stack, in process, by calling each layer's public functions on
// the same inputs: tokenize, DOM build, the DOM and streaming validation
// walks, bind decode, JSON, FromJSON, Marshal, and the HTTP handler. A
// layer's self time is its cumulative call minus the call below it on the
// same input, so the layers add up to the whole. Every call is a span;
// allocations come from runtime.MemStats deltas around each batch of
// calls, one batch per layer and round.
package ladder

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/bench/workload"
	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/xmlparser"
)

// Input is one valid document of the workload.
type Input struct {
	ID     int // the request's index in the workload's pool
	Schema string
	Op     workload.Op
	XML    []byte
	// Body is the request body the server receives: the XML, or
	// canonical JSON for encode.
	Body []byte
	Text bool
}

// ChainDepths are the nesting depths validator.dom.us_per_klevel is
// measured at.
var ChainDepths = []int{1000, 2000, 3000}

// maxRounds caps the repetitions a generous budget buys.
const maxRounds = 50

// batch accumulates one layer's calls over the rounds.
type batch struct {
	ns     []int64 // per input
	bytes  uint64
	allocs uint64
	rounds int
}

func (b *batch) calls() float64 { return float64(b.rounds * len(b.ns)) }

// us is the mean time per call, in µs.
func (b *batch) us() float64 {
	var sum int64
	for _, ns := range b.ns {
		sum += ns
	}
	return float64(sum) / b.calls() / 1e3
}

func (b *batch) bytesPerCall() float64  { return float64(b.bytes) / b.calls() }
func (b *batch) allocsPerCall() float64 { return float64(b.allocs) / b.calls() }

// runner times the layers over the inputs.
type runner struct {
	trace   *Trace
	inputs  []Input
	batches map[string]*batch
}

// each runs fn on every input as one batch of the named layer: a parent
// span for the batch, a child span per call, and a MemStats delta around
// the whole batch. Only fn is timed; it must do nothing but the call.
func (r *runner) each(name string, fn func(i int) error) error {
	b := r.batches[name]
	if b == nil {
		b = &batch{ns: make([]int64, len(r.inputs))}
		r.batches[name] = b
	}
	parent := r.trace.NewID()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	for i := range r.inputs {
		t0 := time.Now()
		err := fn(i)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("ladder: %s on input %d (%s): %w", name, r.inputs[i].ID, r.inputs[i].Schema, err)
		}
		b.ns[i] += int64(t1.Sub(t0))
		r.trace.Add(r.trace.NewID(), parent, name, r.inputs[i].ID, t0, t1)
	}
	end := time.Now()
	runtime.ReadMemStats(&m1)
	r.trace.Add(parent, 0, "ladder."+name, -1, begin, end)
	b.bytes += m1.TotalAlloc - m0.TotalAlloc
	b.allocs += m1.Mallocs - m0.Mallocs
	b.rounds++
	return nil
}

func tokenize(src []byte) error {
	d := xmlparser.NewDecoder(src, nil)
	for {
		t, err := d.Token()
		if err != nil || t == nil {
			return err
		}
	}
}

// Run prices the inputs over the schema directory dir: one round, then
// more while budget lasts. It returns the per-layer metrics by name.
func Run(dir string, inputs []Input, budget time.Duration, tr *Trace) (map[string]float64, error) {
	var styles [2]int
	for _, in := range inputs {
		if in.Text {
			styles[1]++
		} else {
			styles[0]++
		}
	}
	if styles[0] == 0 || styles[1] == 0 {
		return nil, fmt.Errorf("ladder: need markup-heavy and text-heavy inputs, have %d and %d", styles[0], styles[1])
	}
	out := map[string]float64{}
	reg, err := coldRegistry(dir, tr, out)
	if err != nil {
		return nil, err
	}
	entries := make([]*registry.Entry, len(inputs))
	for i, in := range inputs {
		e, ok := reg.Get(in.Schema)
		if !ok {
			return nil, fmt.Errorf("ladder: schema %q not loaded", in.Schema)
		}
		entries[i] = e
	}
	chain, _ := reg.Get("chain")
	chains := make([]*dom.Document, len(ChainDepths))
	for k, depth := range ChainDepths {
		if chains[k], err = dom.Parse(workload.ChainDoc(depth).XML); err != nil {
			return nil, fmt.Errorf("ladder: parsing chain of depth %d: %w", depth, err)
		}
	}
	handler := server.New(server.Config{Registry: reg}).Handler()

	r := &runner{trace: tr, inputs: inputs, batches: map[string]*batch{}}
	chainNs := make([]int64, len(ChainDepths))
	start := time.Now()
	rounds := 0
	for rounds == 0 || (rounds < maxRounds && time.Since(start) < budget) {
		if err := r.round(entries, handler); err != nil {
			return nil, err
		}
		for k, doc := range chains {
			t0 := time.Now()
			res := chain.Validator.ValidateDocument(doc)
			t1 := time.Now()
			if err := res.Err(); err != nil {
				return nil, fmt.Errorf("ladder: chain of depth %d: %w", ChainDepths[k], err)
			}
			chainNs[k] += int64(t1.Sub(t0))
			tr.Add(tr.NewID(), 0, "validator.dom.chain", ChainDepths[k], t0, t1)
		}
		rounds++
	}
	var klevel float64
	for k, depth := range ChainDepths {
		klevel += float64(chainNs[k]) / float64(rounds) / 1e3 / (float64(depth) / 1000)
	}
	out["validator.dom.us_per_klevel"] = klevel / float64(len(ChainDepths))
	r.metrics(out)
	return out, nil
}

// coldRegistry prices bringing a registry from empty to serving over
// dir, three times, and returns the last one.
func coldRegistry(dir string, tr *Trace, out map[string]float64) (*registry.Registry, error) {
	const reps = 3
	var reg *registry.Registry
	var ns int64
	var alloc uint64
	for i := 0; i < reps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		reg = registry.New(dir, nil)
		_, err := reg.Reload()
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("ladder: loading %s: %w", dir, err)
		}
		if n := len(reg.List()); n != workload.Entries {
			return nil, fmt.Errorf("ladder: registry lists %d schemas, want %d", n, workload.Entries)
		}
		ns += int64(t1.Sub(t0))
		alloc += m1.TotalAlloc - m0.TotalAlloc
		tr.Add(tr.NewID(), 0, "registry.cold", -1, t0, t1)
	}
	out["registry.cold_ms"] = float64(ns) / reps / 1e6
	out["registry.cold_bytes"] = float64(alloc) / reps
	return reg, nil
}

// round runs every layer once over every input, each layer on the
// product of the layer below where it has one.
func (r *runner) round(entries []*registry.Entry, handler http.Handler) error {
	n := len(r.inputs)
	docs := make([]*dom.Document, n)
	defer func() {
		for _, d := range docs {
			if d != nil {
				d.Release()
			}
		}
	}()
	vals := make([]*bind.Value, n)
	js := make([][]byte, n)
	reqs := make([]*http.Request, n)
	steps := []struct {
		name string
		fn   func(i int) error
	}{
		{"xmlparser.tokenize", func(i int) error { return tokenize(r.inputs[i].XML) }},
		{"dom.parse", func(i int) (err error) {
			docs[i], err = dom.Parse(r.inputs[i].XML)
			return err
		}},
		{"validator.dom", func(i int) error { return entries[i].Validator.ValidateDocument(docs[i]).Err() }},
		{"validator.stream", func(i int) error { return entries[i].Stream.ValidateBytes(r.inputs[i].XML).Err() }},
		{"bind.decode", func(i int) error {
			v, res := entries[i].Binder.DecodeDocument(docs[i])
			vals[i] = v
			return res.Err()
		}},
		{"bind.decode_stream", func(i int) error {
			_, res, err := entries[i].Binder.DecodeStreamBytes(r.inputs[i].XML)
			if err != nil {
				return err
			}
			return res.Err()
		}},
		{"bind.json", func(i int) error {
			js[i] = entries[i].Binder.JSON(vals[i])
			return nil
		}},
		{"bind.from_json", func(i int) error {
			_, err := entries[i].Binder.FromJSON(js[i])
			return err
		}},
		{"bind.marshal", func(i int) error {
			_, err := entries[i].Binder.Marshal(vals[i])
			return err
		}},
		{"library", func(i int) error { return library(entries[i], r.inputs[i]) }},
	}
	for _, s := range steps {
		if err := r.each(s.name, s.fn); err != nil {
			return err
		}
	}
	for i, in := range r.inputs {
		reqs[i] = httptest.NewRequest(http.MethodPost, in.Op.Path(in.Schema), bytes.NewReader(in.Body))
	}
	return r.each("server.handler", func(i int) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, reqs[i])
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler answered %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		return nil
	})
}

// library makes the library calls the server makes for the input's op,
// without the server around them.
func library(e *registry.Entry, in Input) error {
	switch in.Op {
	case workload.OpStream:
		return e.Stream.ValidateBytes(in.Body).Err()
	case workload.OpDecode:
		v, res := e.Binder.DecodeBytes(in.Body)
		if err := res.Err(); err != nil {
			return err
		}
		e.Binder.JSON(v)
		return nil
	case workload.OpDecodeStream:
		v, res, err := e.Binder.DecodeReader(context.Background(), bytes.NewReader(in.Body))
		if err != nil {
			return err
		}
		if err := res.Err(); err != nil {
			return err
		}
		e.Binder.JSON(v)
		return nil
	case workload.OpEncode:
		v, err := e.Binder.FromJSON(in.Body)
		if err != nil {
			return err
		}
		_, err = e.Binder.Marshal(v)
		return err
	}
	doc, err := dom.Parse(in.Body)
	if err != nil {
		return err
	}
	defer doc.Release()
	return e.Validator.ValidateDocument(doc).Err()
}

// metrics derives the per-layer metrics from the batches.
func (r *runner) metrics(out map[string]float64) {
	b := r.batches
	tok, parse, val, stream := b["xmlparser.tokenize"], b["dom.parse"], b["validator.dom"], b["validator.stream"]
	for _, style := range []struct {
		name string
		text bool
	}{{"markup", false}, {"text", true}} {
		var size, ns int64
		for i, in := range r.inputs {
			if in.Text == style.text {
				size += int64(len(in.XML))
				ns += tok.ns[i]
			}
		}
		// Bytes per µs is MB/s.
		out["xmlparser.mb_s."+style.name] = float64(size) * float64(tok.rounds) / (float64(ns) / 1e3)
	}
	out["xmlparser.bytes_per_doc"] = tok.bytesPerCall()
	out["dom.self_us_per_doc"] = parse.us() - tok.us()
	out["dom.bytes_per_doc"] = parse.bytesPerCall() - tok.bytesPerCall()
	out["dom.allocs_per_doc"] = parse.allocsPerCall() - tok.allocsPerCall()
	out["validator.dom.us_per_doc"] = val.us()
	out["validator.dom.bytes_per_doc"] = val.bytesPerCall()
	out["validator.stream.self_us_per_doc"] = stream.us() - tok.us()
	out["validator.stream.bytes_per_doc"] = stream.bytesPerCall() - tok.bytesPerCall()
	out["validator.stream_dom_bytes_ratio"] = stream.bytesPerCall() / (parse.bytesPerCall() + val.bytesPerCall())
	out["bind.decode.self_us_per_doc"] = b["bind.decode"].us() - val.us()
	out["bind.decode_stream.self_us_per_doc"] = b["bind.decode_stream"].us() - stream.us()
	for _, l := range []string{"json", "from_json", "marshal"} {
		out["bind."+l+".us_per_doc"] = b["bind."+l].us()
		out["bind."+l+".bytes_per_doc"] = b["bind."+l].bytesPerCall()
	}
	h, lib := b["server.handler"], b["library"]
	out["server.self_us_per_req"] = h.us() - lib.us()
	out["server.bytes_per_req"] = h.bytesPerCall() - lib.bytesPerCall()
	out["server.allocs_per_req"] = h.allocsPerCall() - lib.allocsPerCall()
}
