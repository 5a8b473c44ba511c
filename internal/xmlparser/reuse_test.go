package xmlparser

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// drain reads every token of d, detached, and the error that ended the
// document, without releasing d.
func drain(d *Decoder) ([]Token, error) {
	var toks []Token
	for {
		t, err := d.Token()
		if err != nil || t == nil {
			return toks, err
		}
		tc := *t
		tc.Detach()
		toks = append(toks, tc)
	}
}

// input is one document in one decoder mode.
type input struct {
	src    string
	reader func(string) io.Reader // nil: whole-buffer mode
}

func (in input) start(d *Decoder) *Decoder {
	if in.reader == nil {
		return d.start(nil, []byte(in.src), nil)
	}
	return d.start(in.reader(in.src), nil, nil)
}

// modes are the decoder modes every document is read in: whole buffer,
// and a reader that yields a few bytes at a time.
var modes = []struct {
	name   string
	reader func(string) io.Reader
}{
	{"buffer", nil},
	{"reader", func(s string) io.Reader { return &chunkReader{s: s, n: 7} }},
}

// checkReuse reads first on d, then next on the same decoder after a
// reset, and requires next's tokens, positions and error to be those of a
// fresh decoder.
func checkReuse(t *testing.T, d *Decoder, first, next input) {
	t.Helper()
	first.start(d)
	drain(d) //nolint:errcheck // the first document may be malformed on purpose
	d.reset()
	gotToks, gotErr := drain(next.start(d))
	wantToks, wantErr := drain(next.start(new(Decoder)))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("after %.40q, %.40q: error %v, fresh decoder %v", first.src, next.src, gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotToks, wantToks) {
		t.Fatalf("after %.40q, %.40q: tokens differ from a fresh decoder's:\n  reused: %#v\n  fresh:  %#v",
			first.src, next.src, gotToks, wantToks)
	}
}

// failingReader yields s, then fails.
type failingReader struct{ s string }

func (f *failingReader) Read(p []byte) (int, error) {
	if f.s == "" {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, f.s)
	f.s = f.s[n:]
	return n, nil
}

// TestDecoderReuseLeaksNothing reads documents that leave state behind —
// malformed ones, an internal subset declaring an entity, a reader that
// fails, namespace chains (shallow, past the pool's limits, and cut off
// with their bindings in scope), and enough distinct names to fill the
// intern cache — and after each, on the same decoder, every parity
// document, which must read exactly as on a fresh decoder. The entity
// must stay undeclared, and a chain's prefixes unbound, in the next
// document.
func TestDecoderReuseLeaksNothing(t *testing.T) {
	chain := func(depth int) string {
		var sb strings.Builder
		for i := 0; i < depth; i++ {
			fmt.Fprintf(&sb, `<p%d:n xmlns:p%d="u%d" xmlns="urn:d">`, i, i, i)
		}
		for i := depth - 1; i >= 0; i-- {
			fmt.Fprintf(&sb, `</p%d:n>`, i)
		}
		return sb.String()
	}
	var names strings.Builder
	names.WriteString("<r>")
	for i := 0; i < 2*maxInternEntries; i++ {
		fmt.Fprintf(&names, `<e%d a%d="v%d">t%d</e%d>`, i, i, i, i, i)
	}
	names.WriteString("</r>")
	firsts := []input{
		{src: `<a><b></a>`},
		{src: `<a x="1" x="2"><b>text</b>`},
		{src: "<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ENTITY x \"leaked\">]>\n<a>&x;</a>"},
		{src: "<!DOCTYPE a [<!ENTITY x \"leaked\">]><a><b>&x;", reader: func(s string) io.Reader { return &failingReader{s: s} }},
		{src: `<a><b>text`, reader: func(s string) io.Reader { return &errReader{s: s} }},
		{src: chain(20)},
		{src: chain(poolLimit + 10)},
		{src: `<p0:n xmlns:p0="leaked" xmlns="urn:leaked"><b>`},
		{src: chain(40)[:len(chain(40))/2]},
		{src: `<a attr="` + strings.Repeat("v", 2*poolText) + `">` + strings.Repeat("<b/>", 2*poolLimit) + `</a>`},
		{src: names.String()},
	}
	nexts := append(append([]string{}, parityDocs...), parityErrDocs...)
	nexts = append(nexts,
		`<a>&x;</a>`,
		`<a b="&x;"/>`,
		`<p0:n/>`,
		`<n/>`,
		`<a><p1:b xmlns:p1="u"/><p1:c/></a>`,
	)
	d := new(Decoder)
	for _, first := range firsts {
		for _, fm := range modes {
			if fm.reader != nil && first.reader != nil {
				continue // a first document with its own reader is read once
			}
			if first.reader == nil {
				first.reader = fm.reader
			}
			for _, src := range nexts {
				for _, nm := range modes {
					checkReuse(t, d, first, input{src: src, reader: nm.reader})
				}
			}
		}
	}
	// The entity and the prefixes are errors, not leftovers.
	for _, tc := range []struct{ first, next, want string }{
		{firsts[2].src, `<a>&x;</a>`, `reference to undeclared entity "x"`},
		{firsts[5].src, `<p0:n/>`, `undeclared namespace prefix "p0"`},
		{firsts[7].src, `<p0:n/>`, `undeclared namespace prefix "p0"`},
		{firsts[8].src, `<p0:n/>`, `undeclared namespace prefix "p0"`},
	} {
		for _, fm := range modes {
			input{src: tc.first, reader: fm.reader}.start(d)
			drain(d) //nolint:errcheck
			d.reset()
			if _, err := drain(input{src: tc.next, reader: fm.reader}.start(d)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s mode, after %.40q: %q gave %v, want %q", fm.name, tc.first, tc.next, err, tc.want)
			}
		}
	}
}

// TestReleaseDropsLargeBuffers checks that a decoder returns to the pool
// without what one large document grew past the pool's limits, and with
// no string of the document in its scratch slices.
func TestReleaseDropsLargeBuffers(t *testing.T) {
	deep := strings.Repeat("<a>", 2*poolLimit) + strings.Repeat("</a>", 2*poolLimit)
	d := NewReaderDecoder(&chunkReader{s: `<r a="` + strings.Repeat("x", 8*readChunk) + `">` + deep + `</r>`, n: 1 << 20}, nil)
	if _, err := drain(d); err != nil {
		t.Fatal(err)
	}
	d.reset()
	if cap(d.window) > poolWindow || cap(d.buf) > poolText || cap(d.stack) > poolLimit || cap(d.ns.list) > poolLimit {
		t.Errorf("kept window %d, buf %d, stack %d, bindings %d", cap(d.window), cap(d.buf), cap(d.stack), cap(d.ns.list))
	}
	d.start(nil, []byte(`<a xmlns:p="u" p:x="1" y="2"><b/></a>`), nil)
	if _, err := drain(d); err != nil {
		t.Fatal(err)
	}
	d.reset()
	for _, a := range d.attrs[:cap(d.attrs)] {
		if a != (Attr{}) {
			t.Errorf("released decoder keeps attribute %v", a)
		}
	}
	for _, e := range d.stack[:cap(d.stack)] {
		if e != (openElem{}) {
			t.Errorf("released decoder keeps open element %v", e)
		}
	}
	for _, b := range d.ns.list[:cap(d.ns.list)] {
		if b != (binding{}) {
			t.Errorf("released decoder keeps binding %v", b)
		}
	}
}

// FuzzDecoderReuse holds pooled decoders to a fresh decoder's output: a
// seed document, then the input, read on one decoder reset between them,
// must give the input's tokens, positions and error exactly as a fresh
// decoder does, in both decoder modes.
func FuzzDecoderReuse(f *testing.F) {
	firsts := []string{
		`<!DOCTYPE a [<!ENTITY x "leaked">]><a>&x;</a>`,
		`<p:a xmlns:p="u"><q:b xmlns:q="v" xmlns="w">` + strings.Repeat(`<c xmlns:r="x"/>`, 20) + `</q:b>`,
		`<a><b></a>`,
	}
	for i, s := range []string{`<a>&x;</a>`, `<p:a/>`, `<q:b xmlns:q="v"/>`, "<a>t\r\n</a>", `<a b="1"/>`, ``} {
		f.Add(uint8(i), []byte(s))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		first := firsts[int(which)%len(firsts)]
		for _, fm := range modes {
			for _, nm := range modes {
				checkReuse(t, new(Decoder), input{src: first, reader: fm.reader}, input{src: string(data), reader: nm.reader})
			}
		}
		// The pool itself: the input after a released decoder.
		d := NewDecoder([]byte(first), nil)
		drain(d) //nolint:errcheck
		d.Release()
		gotToks, gotErr := Parse(data)
		wantToks, wantErr := drain(new(Decoder).start(nil, data, nil))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (gotErr == nil && !reflect.DeepEqual(gotToks, wantToks)) {
			t.Fatalf("pooled Parse diverges from a fresh decoder: %v / %v", gotErr, wantErr)
		}
	})
}
