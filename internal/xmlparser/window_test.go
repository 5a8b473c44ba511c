package xmlparser

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// splitReader yields its first k bytes in one read and the rest in the
// next, so the decoder's window ends exactly at byte k.
type splitReader struct {
	s string
	k int
}

func (r *splitReader) Read(p []byte) (int, error) {
	if len(r.s) == 0 {
		return 0, io.EOF
	}
	n := len(r.s)
	if r.k > 0 {
		n, r.k = min(n, r.k), 0
	}
	n = copy(p, r.s[:n])
	r.s = r.s[n:]
	return n, nil
}

// wideAttrs writes n attributes a0="" a1="" ... for a start tag.
func wideAttrs(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, ` a%d=""`, i)
	}
	return sb.String()
}

// atWindowEdge pads a document so that what follows the padding starts at
// byte readChunk-len(tail): a reader that fills whole chunks then ends its
// first window right after tail.
func atWindowEdge(tail, rest string) string {
	return "<r>" + strings.Repeat("x", readChunk-3-len(tail)) + tail + rest
}

// windowTagCases are start tags the window scan must leave to the rune-by-
// rune reader, or read through a window edge, each beside the ordinary
// shape it departs from.
var windowTagCases = []struct{ name, src string }{
	{"ordinary", "<r a=\"1\" b='2'\tc=\"\" ><e/><e x=\"y\" /></r>"},
	{"LF before an attribute", "<r\na=\"1\"/>"},
	{"LF between attributes", "<r a=\"1\"\n b=\"2\"></r>"},
	{"LF before the end", "<r a=\"1\"\n/>"},
	{"CR in a tag", "<r\ra=\"1\"/>"},
	{"CRLF in a tag", "<r a=\"1\"\r\n b=\"2\"></r>"},
	{"space before =", `<r a ="1"/>`},
	{"space after =", `<r a= "1"/>`},
	{"spaces around =", `<r a = "1"/>`},
	{"non-ASCII element names", "<r><é/><aé b=\"1\"/><世界></世界></r>"},
	{"non-ASCII attribute names", "<r é=\"1\" aé=\"2\"/>"},
	{"non-ASCII values", "<r a=\"é\" b=\"x€y\"/>"},
	{"references in values", `<r a="x&amp;y" b="&#65;" c="&lt;" d="&q;"/>`},
	{"'<' in a value", `<r a="x<y"/>`},
	{"tab and LF in a value", "<r a=\"x\ty\nz\"/>"},
	{"the other quote in a value", `<r a="it's" b='say "hi"'/>`},
	{"no space between attributes", `<r a="1"b="2"/>`},
	{"'/' without '>'", `<r a="1"/ >`},
	{"unterminated tag", `<r a="1"`},
	{"unterminated value", `<r a="1`},
	{"unquoted value", `<r a=1/>`},
	{"literal duplicate", `<r a="1" b="2" a="3"/>`},
	{"resolved duplicate", `<r xmlns:p="u" xmlns:q="u" p:a="1" q:a="2"/>`},
	{"undeclared element prefix", `<r><p:e a="1"/></r>`},
	{"undeclared attribute prefix", `<r p:a="1"/>`},
	{"bad qualified name", `<r a:b:c="1"/>`},
	{"declarations", `<p:r xmlns:p="u" xmlns="d"><e p:a="1"><p:e/></e></p:r>`},
	{"4 KB element name", "<r><" + strings.Repeat("n", 4096) + " a=\"1\"/></r>"},
	{"4 KB attribute name", "<r " + strings.Repeat("n", 4096) + "=\"1\"/>"},
	{"2,000 attributes", "<r" + wideAttrs(2000) + "/>"},
	{"2,000 attributes, one repeated", "<r" + wideAttrs(2000) + ` a7="x"/>`},
	{"element name at the window edge", atWindowEdge("<item", ` partNum="1"/></r>`)},
	{"attribute name at the window edge", atWindowEdge("<item partNum", `="1"/></r>`)},
	{"value at the window edge", atWindowEdge(`<item partNum="1"`, `/></r>`)},
}

// splitOffsets are the window edges a document is read with: every offset
// of a short document, and of a long one every offset within 64 bytes of
// a '<' or '>' and every 61st in between.
func splitOffsets(src string) []int {
	near := make([]bool, len(src)+64)
	for i := 0; i < len(src); i++ {
		if src[i] == '<' || src[i] == '>' {
			for j := max(i-64, 0); j < i+64; j++ {
				near[j] = true
			}
		}
	}
	var ks []int
	for k := 1; k < len(src); k++ {
		if len(src) <= 2048 || near[k] || k%61 == 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// completeNames returns the maximal runs of name bytes in src: a name the
// memo holds must be one of them, not a name cut short by a window edge.
func completeNames(src string) map[string]bool {
	names := map[string]bool{}
	for _, f := range strings.FieldsFunc(src, func(r rune) bool { return r < 0x80 && !asciiName[r] }) {
		names[f] = true
	}
	return names
}

// TestWindowTagFallbacks holds the window scan of start tags to the
// reference scanner (noBulk) on the tags it must leave to the rune-by-rune
// path: tokens, positions and error text must be the reference's in buffer
// mode, through a one-byte reader, and with the reader's window ending at
// every split offset. The memo must hold no name a window edge cut short.
func TestWindowTagFallbacks(t *testing.T) {
	for _, c := range windowTagCases {
		ref, refErr := parseMode(c.src, nil, true)
		toks, err := parseMode(c.src, nil, false)
		assertTokenParity(t, c.name+"/buffer", c.src, toks, err, ref, refErr)
		toks, err = parseMode(c.src, func() io.Reader { return iotest.OneByteReader(strings.NewReader(c.src)) }, false)
		assertTokenParity(t, c.name+"/one-byte", c.src, toks, err, ref, refErr)
		toks, err = parseMode(c.src, func() io.Reader { return strings.NewReader(c.src) }, false)
		assertTokenParity(t, c.name+"/whole-reads", c.src, toks, err, ref, refErr)
		names := completeNames(c.src)
		for _, k := range splitOffsets(c.src) {
			d := new(Decoder).start(&splitReader{s: c.src, k: k}, nil, nil)
			toks, err := drain(d)
			if err != nil {
				toks = nil
			}
			assertTokenParity(t, fmt.Sprintf("%s/split-%d", c.name, k), c.src, toks, err, ref, refErr)
			for raw := range d.names {
				if !names[raw] {
					t.Fatalf("%s/split-%d: the memo holds %q, a name cut short", c.name, k, raw)
				}
			}
		}
	}
}

// TestControlAfterWhitespace pins the fix to the word sweeps' control
// check: an illegal control byte right after a tab, LF or CR (where a
// borrow from the whitespace lane used to hide it) is rejected in
// character data and in CDATA sections, by every scanner.
func TestControlAfterWhitespace(t *testing.T) {
	for _, src := range []string{
		"<A>\n\vabcdef</A>",
		"<A>\t\babcdefgh</A>",
		"<A>x\r\fabcdefgh</A>",
		"<A>\n\v\v\v\v\v\v0",
		"<A><![CDATA[\n\vabcdef]]></A>",
		"<A><![CDATA[\t\babcdefgh]]></A>",
		"<A><![CDATA[\r\fabcdefgh]]></A>",
	} {
		ref, refErr := parseMode(src, nil, true)
		if refErr == nil || !strings.Contains(refErr.Error(), "illegal character") {
			t.Fatalf("%q: reference error %v, want an illegal character", src, refErr)
		}
		toks, err := parseMode(src, nil, false)
		assertTokenParity(t, "buffer", src, toks, err, ref, refErr)
		toks, err = parseMode(src, func() io.Reader { return strings.NewReader(src) }, false)
		assertTokenParity(t, "reader", src, toks, err, ref, refErr)
	}
}
