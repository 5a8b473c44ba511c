package xmlparser

import (
	"encoding/binary"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// TestSWARScanBoundaries pins the word-sweep scanners against the exact
// byte tables at every alignment: a special byte planted at each offset
// of a 40-byte plain run must stop the scan precisely there.
func TestSWARScanBoundaries(t *testing.T) {
	plain := []byte(strings.Repeat("abcdefgh", 5))
	textSpecials := []byte{'<', '&', ']', '\r', 0x00, 0x1f, 0x0b, 0x80, 0xc3, 0xff}
	attrSpecials := []byte{'<', '&', '"', '\'', '\t', '\n', '\r', 0x00, 0x1f, 0x80, 0xff}
	for _, sp := range textSpecials {
		for i := 0; i <= len(plain); i++ {
			s := append(append(append([]byte{}, plain[:i]...), sp), plain[i:]...)
			if got := scanPlainText(s); got != i {
				t.Fatalf("scanPlainText: special 0x%02x at %d: got %d", sp, i, got)
			}
		}
	}
	for _, sp := range attrSpecials {
		for i := 0; i <= len(plain); i++ {
			s := append(append(append([]byte{}, plain[:i]...), sp), plain[i:]...)
			if got := scanPlainAttr(s); got != i {
				t.Fatalf("scanPlainAttr: special 0x%02x at %d: got %d", sp, i, got)
			}
		}
	}
	// Plain bytes the text scanner must NOT stop on: tab and LF.
	if got := scanPlainText([]byte("a\tb\nc")); got != 5 {
		t.Fatalf("scanPlainText over tab/LF: got %d, want 5", got)
	}
	// Exhaustive single-byte agreement with the tables.
	for c := 0; c < 256; c++ {
		one := []byte{byte(c)}
		if got, want := scanPlainText(one) == 0, specialText[c]; got != want {
			t.Fatalf("scanPlainText table disagreement at 0x%02x", c)
		}
		if got, want := scanPlainAttr(one) == 0, specialAttr[c]; got != want {
			t.Fatalf("scanPlainAttr table disagreement at 0x%02x", c)
		}
	}
}

// TestCheckCharBytes pins the amortized character-legality sweep against
// the per-rune reference over the interesting classes.
func TestCheckCharBytes(t *testing.T) {
	cases := []struct {
		in  string
		bad bool
	}{
		{"plain ascii with\ttabs\nand\rreturns", false},
		{strings.Repeat("x", 100), false},
		{"caf\u00e9 \u4e16\u754c \U0001F600", false},
		{"\x7f del is legal", false},
		{"bad\x00ctl", true},
		{"bad\x1fctl", true},
		{"fffe \ufffe here", true},
		{"ffff \uffff here", true},
		{"invalid \x80\x80 utf8 is U+FFFD (legal)", false},
		{"truncated \xc3", false},
		{"", false},
	}
	for _, c := range cases {
		err := checkCharBytes([]byte(c.in))
		if (err != nil) != c.bad {
			t.Errorf("checkCharBytes(%q): err=%v, want bad=%v", c.in, err, c.bad)
		}
		// Agreement with the per-rune reference used for cold tokens.
		ref := checkChars(c.in)
		if (err != nil) != (ref != nil) {
			t.Errorf("checkCharBytes(%q) disagrees with checkChars: %v vs %v", c.in, err, ref)
		}
		if err != nil && ref != nil && err.Error() != ref.Error() {
			t.Errorf("checkCharBytes(%q) message %q, reference %q", c.in, err, ref)
		}
	}
}

// bulkParityDocs stress the SWAR fast paths where they diverge most from
// the reference scanner: runs crossing 8-byte word and refill boundaries,
// newlines inside bulk runs, non-ASCII segments, lone ']', CR forms, and
// rewrite triggers mid-run.
var bulkParityDocs = []string{
	"<a>" + strings.Repeat("0123456", 1200) + "</a>",
	"<a>" + strings.Repeat("line\n", 500) + "</a>",
	"<a>" + strings.Repeat("x", 8189) + "\n tail</a>",
	"<a>" + strings.Repeat("\u4e16\u754c", 300) + "</a>",
	"<a>ascii \u00e9 mixed \U0001F600 runs \u4e16</a>",
	"<a>brackets ] in ]] text ]x]</a>",
	"<a>cr\rcrlf\r\nlf\n</a>",
	"<a>amp &amp; entity &#x41; refs</a>",
	"<a>" + strings.Repeat("y", 40) + "&lt;" + strings.Repeat("z", 40) + "</a>",
	"<a><![CDATA[" + strings.Repeat("cdata ]] run\n", 300) + "]]></a>",
	"<a><![CDATA[\u00e9\u4e16\u754c]]></a>",
	`<a attr="` + strings.Repeat("v", 300) + `"/>`,
	"<a attr='tab\tlf\ncr\rmix " + strings.Repeat("w", 64) + "'/>",
	`<a attr="quote ' other"/>`,
	"<a attr=\"caf\u00e9 \u4e16\u754c\"/>",
	"<verylongelementnamethatcrosseswords attributenamealsoquitelong=\"v\"/>",
	"<a>\n<b>\n<c>deep\n</c>\n</b>\n</a>",
	"<m>t1<i>x</i>\r\nt2<b/>t3</m>",
	"<a>text<!--comment\nspanning\nlines--><?pi some data?></a>",
	// End tags: the comparison with the open element's name, and the full
	// scan it leaves to anything but "name>".
	"<a></a >",
	"<a>\n</a\n>",
	`<p:a xmlns:p="u"></p:a>`,
	"<\u00e9></\u00e9>",
	"<r><\u00e9></\u00e9>after<x\u4e16></x\u4e16><b/></r>",
	"<" + strings.Repeat("n", 600) + "><b/></" + strings.Repeat("n", 600) + ">",
	// Tokens filled in place over one another: attributes, self-closing
	// ends, text, references, PIs and doctype targets in turn.
	"<!DOCTYPE r SYSTEM \"r.dtd\"><r a=\"1\" b=\"2\"><?p d?>t<e x=\"y\"/>&amp;<![CDATA[c]]><!--k--><f/></r>",
}

// bulkParityErrDocs must produce byte-identical errors (message and
// position) from the SWAR and reference scanners.
var bulkParityErrDocs = []string{
	"<a>pre ]]> post</a>",
	"<a>" + strings.Repeat("x", 100) + "]]></a>",
	"<a>ctl \x01 here</a>",
	"<a>\n\n  bad \x1f</a>",
	"<a>fffe \ufffe</a>",
	"<a>" + strings.Repeat("p", 70) + "\uffff</a>",
	"<a attr=\"bad \x02\"/>",
	"<a attr=\"fffe \ufffe\"/>",
	"<a><![CDATA[bad \x03]]></a>",
	"<a><![CDATA[" + strings.Repeat("q", 90) + "\ufffe]]></a>",
	"<a>unterminated",
	`<a attr="unterminated`,
	"</a >",
	"</a\n>",
	"<ab></a>",
	"<a></ab>",
	`<p:a xmlns:p="u"></q:a>`,
	"<a></a",
	"<a></a x>",
	"<" + strings.Repeat("n", 600) + "></" + strings.Repeat("n", 599) + ">",
}

// parseMode parses src with explicit control of reader mode and the
// noBulk reference-scanner switch.
func parseMode(src string, rd func() io.Reader, noBulk bool) ([]Token, error) {
	var d *Decoder
	if rd == nil {
		d = NewDecoder([]byte(src), nil)
	} else {
		d = NewReaderDecoder(rd(), nil)
	}
	d.noBulk = noBulk
	return parseAll(d)
}

// assertTokenParity compares two (tokens, error) outcomes byte-exactly.
func assertTokenParity(t *testing.T, label, src string, aT []Token, aE error, bT []Token, bE error) {
	t.Helper()
	if (aE == nil) != (bE == nil) {
		t.Errorf("%s: error divergence on %.60q:\n  bulk: %v\n  ref:  %v", label, src, aE, bE)
		return
	}
	if aE != nil {
		if aE.Error() != bE.Error() {
			t.Errorf("%s: error text divergence on %.60q:\n  bulk: %v\n  ref:  %v", label, src, aE, bE)
		}
		return
	}
	if len(aT) != len(bT) {
		t.Errorf("%s: token count divergence on %.60q: %d vs %d", label, src, len(aT), len(bT))
		return
	}
	for i := range aT {
		if !reflect.DeepEqual(aT[i], bT[i]) {
			t.Errorf("%s: token %d divergence on %.60q:\n  bulk: %#v\n  ref:  %#v", label, i, src, aT[i], bT[i])
			return
		}
	}
}

// TestBulkScanPositionParity is the position-accounting gate for the SWAR
// tokenizer: over documents engineered to hit every bulk path, the word-
// sweep scanner and the byte-at-a-time reference scanner (noBulk) must
// produce identical token streams — every Line/Col/Offset, every payload,
// every error — in both whole-buffer and chunked-reader modes.
func TestBulkScanPositionParity(t *testing.T) {
	docs := append([]string{}, bulkParityDocs...)
	docs = append(docs, bulkParityErrDocs...)
	docs = append(docs, parityDocs...)
	docs = append(docs, parityErrDocs...)
	for _, src := range docs {
		bulkToks, bulkErr := parseMode(src, nil, false)
		refToks, refErr := parseMode(src, nil, true)
		assertTokenParity(t, "buffer", src, bulkToks, bulkErr, refToks, refErr)

		onebyte := func() io.Reader { return iotest.OneByteReader(strings.NewReader(src)) }
		chunk := func() io.Reader { return &chunkReader{s: src, n: 509} }
		for name, mk := range map[string]func() io.Reader{"one-byte": onebyte, "509-chunk": chunk} {
			rT, rE := parseMode(src, mk, false)
			assertTokenParity(t, "reader-"+name+"-vs-buffer-bulk", src, bulkToks, bulkErr, rT, rE)
			nT, nE := parseMode(src, mk, true)
			assertTokenParity(t, "reader-"+name+"-noBulk", src, bulkToks, bulkErr, nT, nE)
		}
	}
}

// TestBulkScanPositionParityCorpus replays the checked-in fuzz corpus
// through the same bulk-vs-reference comparison.
func TestBulkScanPositionParityCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParse")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no fuzz corpus: %v", err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// Corpus files are go-fuzz encoded; the parity property holds for
		// arbitrary bytes, so feeding the raw encoding is fine too.
		src := string(raw)
		bulkToks, bulkErr := parseMode(src, nil, false)
		refToks, refErr := parseMode(src, nil, true)
		assertTokenParity(t, "corpus:"+e.Name(), src, bulkToks, bulkErr, refToks, refErr)
	}
}

// TestZeroCopyTokenContract verifies the documented aliasing rules:
// undetached payloads alias decoder state and change under the decoder's
// feet, Detach makes them durable, and Data materializes consistently.
func TestZeroCopyTokenContract(t *testing.T) {
	d := NewDecoder([]byte("<a>first</a>"), nil)
	var text Token
	for {
		tok, err := d.Token()
		if err != nil {
			t.Fatal(err)
		}
		if tok == nil {
			break
		}
		if tok.Kind == KindText {
			text = *tok
			text.Detach()
		}
	}
	if text.Data() != "first" || string(text.Bytes()) != "first" {
		t.Fatalf("detached token: Data=%q Bytes=%q", text.Data(), text.Bytes())
	}

	// Zero-copy: a pure text run's bytes alias the input buffer.
	src := []byte("<a>zero copy run</a>")
	d = NewDecoder(src, nil)
	d.Token() // <a>
	tok, err := d.Token()
	if err != nil || tok.Kind != KindText {
		t.Fatalf("want text token, got %v, %v", tok, err)
	}
	b := tok.Bytes()
	if len(b) == 0 || &b[0] != &src[3] {
		t.Fatal("pure text run is not a zero-copy view of the input")
	}
}

// FuzzCharScan pins the word sweeps to per-byte oracles written from the
// XML productions, on arbitrary bytes at every lane offset: scanPlainText
// and scanPlainAttr must stop at the first byte their token kind has to
// look at, checkCharBytes must give checkChars' verdict, textStopMask's
// first flagged lane must be the word's first byte the text loop looks at
// (and no lane flagged when there is none), and swarEqExact must flag
// exactly the lanes holding its byte.
func FuzzCharScan(f *testing.F) {
	for _, s := range []string{
		"plain ascii text, no stops",
		"\n\vabcdefgh\t\babcdefgh\r\fabcdefgh",
		"a<b&c]d\re\x00f\x1fg\x7fh\x80i\xffj",
		"café 世界 \U0001F600 ￾ ￿ \xc3",
		`value "quoted" 'both' &amp; <lt>`,
	} {
		f.Add([]byte(s), byte('\n'))
	}
	plainText := func(c byte) bool {
		return c == '\t' || c == '\n' || c >= 0x20 && c < 0x80 && c != '<' && c != '&' && c != ']'
	}
	plainAttr := func(c byte) bool {
		return c >= 0x20 && c < 0x80 && c != '<' && c != '&' && c != '"' && c != '\''
	}
	textStop := func(c byte) bool {
		return c >= 0x80 || c < 0x20 || c == '<' || c == '&' || c == ']'
	}
	first := func(s []byte, stop func(byte) bool) int {
		for i, c := range s {
			if stop(c) {
				return i
			}
		}
		return len(s)
	}
	f.Fuzz(func(t *testing.T, data []byte, b byte) {
		for off := 0; off < 8 && off <= len(data); off++ {
			s := data[off:]
			if got, want := scanPlainText(s), first(s, func(c byte) bool { return !plainText(c) }); got != want {
				t.Fatalf("scanPlainText(%q) = %d, want %d", s, got, want)
			}
			if got, want := scanPlainAttr(s), first(s, func(c byte) bool { return !plainAttr(c) }); got != want {
				t.Fatalf("scanPlainAttr(%q) = %d, want %d", s, got, want)
			}
			got, want := checkCharBytes(s), checkChars(string(s))
			if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
				t.Fatalf("checkCharBytes(%q) = %v, checkChars %v", s, got, want)
			}
			for i := 0; i+8 <= len(s); i += 8 {
				word := s[i : i+8]
				w := binary.LittleEndian.Uint64(word)
				m, stop := textStopMask(w), first(word, textStop)
				if stop == 8 && m != 0 || stop < 8 && (m == 0 || bits.TrailingZeros64(m)>>3 != stop) {
					t.Fatalf("textStopMask(%q) = %#x, first stop at %d", word, m, stop)
				}
				eq := swarEqExact(w, b)
				for lane, c := range word {
					if flagged := eq>>(8*lane+7)&1 == 1; flagged != (c == b) {
						t.Fatalf("swarEqExact(%q, %#x) = %#x at lane %d", word, b, eq, lane)
					}
				}
			}
		}
	})
}
