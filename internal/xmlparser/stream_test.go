package xmlparser

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// chunkReader yields at most n bytes per Read, forcing the incremental
// decoder through its fill/compact paths at arbitrary boundaries.
type chunkReader struct {
	s string
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.s) == 0 {
		return 0, io.EOF
	}
	n := c.n
	if n > len(c.s) {
		n = len(c.s)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.s[:n])
	c.s = c.s[n:]
	return n, nil
}

// parityDocs exercise every token kind, multi-line positions, entities,
// namespaces, CDATA and attribute normalization.
var parityDocs = []string{
	`<a/>`,
	`<a>hi</a>`,
	"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE root>\n<root attr=\"v\">\n  <child/>\n  text &amp; more &#65;\n  <!-- a comment -->\n  <?pi data?>\n  <![CDATA[raw <stuff> here]]>\n</root>\n",
	`<po:order xmlns:po="urn:example:po" po:id="1"><po:note xml:lang="en">n</po:note></po:order>`,
	`<e xmlns="urn:d"><f xmlns=""><g/></f></e>`,
	"<doc>line one\nline two\r\nline three</doc>",
	`<a b="  spaced   value  " c="tab&#9;here"/>`,
	"<mixed>t1<i>x</i>t2<b/>t3</mixed>",
}

// parityErrDocs must fail with byte-identical errors (message and
// line:col position) on both paths.
var parityErrDocs = []string{
	``,
	`<a><b></a>`,
	`<a attr=">`,
	`<a>&undefined;</a>`,
	`<a><![CDATA[never closed</a>`,
	`<a>text past root</a> trailing`,
	`<p:a xmlns:q="urn:q"/>`,
	"<a>\n<b>\n</b>\n<c>\n</a>",
	`<!-- unterminated`,
	`<!DOCTYPE a [<!WHAT>]><a/>`,
}

// tokenParity asserts the whole-buffer and reader decoders produce
// identical token streams (including every Pos) and identical errors.
func tokenParity(t *testing.T, src string, fragment bool) {
	t.Helper()
	var bufToks []Token
	var bufErr error
	if fragment {
		bufToks, bufErr = ParseFragment([]byte(src), nil)
	} else {
		bufToks, bufErr = Parse([]byte(src))
	}
	readers := map[string]func() io.Reader{
		"one-byte": func() io.Reader { return iotest.OneByteReader(strings.NewReader(src)) },
		"3-byte":   func() io.Reader { return &chunkReader{s: src, n: 3} },
		"4k":       func() io.Reader { return &chunkReader{s: src, n: 4096} },
		"whole":    func() io.Reader { return strings.NewReader(src) },
	}
	for name, mk := range readers {
		var rdToks []Token
		var rdErr error
		if fragment {
			rdToks, rdErr = ParseFragmentReader(mk(), nil)
		} else {
			rdToks, rdErr = ParseReader(mk())
		}
		if (bufErr == nil) != (rdErr == nil) {
			t.Errorf("%s reader: error divergence on %q:\n  buffer: %v\n  reader: %v", name, src, bufErr, rdErr)
			continue
		}
		if bufErr != nil {
			if bufErr.Error() != rdErr.Error() {
				t.Errorf("%s reader: error text divergence on %q:\n  buffer: %v\n  reader: %v", name, src, bufErr, rdErr)
			}
			continue
		}
		if !reflect.DeepEqual(bufToks, rdToks) {
			t.Errorf("%s reader: token divergence on %q:\n  buffer: %#v\n  reader: %#v", name, src, bufToks, rdToks)
		}
	}
}

// TestReaderDecoderParity is the regression test for the single-tokenizer
// refactor: byte offsets, line/column positions and error messages from
// the incremental reader path must be identical to the whole-buffer path.
func TestReaderDecoderParity(t *testing.T) {
	for _, src := range parityDocs {
		tokenParity(t, src, false)
	}
	for _, src := range parityErrDocs {
		tokenParity(t, src, false)
	}
}

// TestReaderDecoderParityFragments covers fragment mode: multiple roots
// and top-level character data.
func TestReaderDecoderParityFragments(t *testing.T) {
	for _, src := range []string{
		`<a/><b/>`,
		`leading text <x>y</x> trailing`,
		`<a>1</a> between <b>2</b>`,
		``,
	} {
		tokenParity(t, src, true)
	}
}

// TestReaderDecoderParityLargeDocument forces many refills and window
// compactions: the document is far larger than the read chunk, and token
// boundaries land on arbitrary chunk edges.
func TestReaderDecoderParityLargeDocument(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<catalog>\n")
	for i := 0; i < 2000; i++ {
		sb.WriteString(`  <item id="i`)
		sb.WriteString(strings.Repeat("x", i%37))
		sb.WriteString(`"><name>product &amp; part</name><desc><![CDATA[<raw>]]></desc></item>`)
		sb.WriteString("\n")
	}
	sb.WriteString("</catalog>")
	src := sb.String()
	bufToks, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("buffer parse: %v", err)
	}
	rdToks, err := ParseReader(&chunkReader{s: src, n: 509})
	if err != nil {
		t.Fatalf("reader parse: %v", err)
	}
	if !reflect.DeepEqual(bufToks, rdToks) {
		for i := range bufToks {
			if i >= len(rdToks) || !reflect.DeepEqual(bufToks[i], rdToks[i]) {
				t.Fatalf("token %d diverged:\n  buffer: %#v\n  reader: %#v", i, bufToks[i], rdToks[i])
			}
		}
		t.Fatalf("token count diverged: %d vs %d", len(bufToks), len(rdToks))
	}
	// Spot-check that offsets really are absolute document offsets, not
	// window-relative.
	last := rdToks[len(rdToks)-1]
	if want := len(src) - len("</catalog>"); last.Pos.Offset != want {
		t.Errorf("final end tag offset = %d, want %d", last.Pos.Offset, want)
	}
}

// errReader fails with a non-EOF error after yielding a prefix.
type errReader struct {
	s    string
	done bool
}

func (e *errReader) Read(p []byte) (int, error) {
	if !e.done {
		e.done = true
		return copy(p, e.s), nil
	}
	return 0, io.ErrUnexpectedEOF
}

// TestReaderDecoderSurfacesIOError checks that a mid-document read
// failure is reported as the I/O error, not as a misleading syntax error
// about the truncated window.
func TestReaderDecoderSurfacesIOError(t *testing.T) {
	_, err := ParseReader(&errReader{s: `<a><b>text`})
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReaderDecoderNoProgress checks the zero-byte-read guard.
func TestReaderDecoderNoProgress(t *testing.T) {
	stuck := iotest.ErrReader(nil) // (0, nil) forever
	_, err := ParseReader(stuck)
	if err == nil {
		t.Fatal("decoder did not detect a no-progress reader")
	}
}

// TestReaderDecoderRefillAllocs checks that refilling the reader-mode
// window allocates nothing once it is warm: tokenizing a 100 KB and a 1 MB
// document through a 4 KB-chunk reader costs the same small constant.
func TestReaderDecoderRefillAllocs(t *testing.T) {
	item := `<item partNum="001-AB"><productName>Widget</productName><quantity>1</quantity></item>` + "\n"
	doc := func(size int) string {
		return "<items>" + strings.Repeat(item, size/len(item)) + "</items>"
	}
	allocs := func(src string) float64 {
		return testing.AllocsPerRun(5, func() {
			d := NewReaderDecoder(&chunkReader{s: src, n: 4096}, nil)
			var tok Token
			for {
				if err := d.Next(&tok); err != nil {
					if err != io.EOF {
						t.Fatal(err)
					}
					return
				}
			}
		})
	}
	small, large := allocs(doc(100<<10)), allocs(doc(1<<20))
	if small != large || large > 32 {
		t.Errorf("allocs per document: %v at 100 KB, %v at 1 MB; want the same constant, at most 32", small, large)
	}
}
