package xmlparser

import (
	"io"
	"math/rand"
	"strings"
	"testing"
)

// refEscape is the rune-loop escaper AppendEscaped replaced.
func refEscape(s string, attr bool) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r == '&':
			sb.WriteString("&amp;")
		case r == '<':
			sb.WriteString("&lt;")
		case r == '>' && !attr:
			sb.WriteString("&gt;")
		case r == '"' && attr:
			sb.WriteString("&quot;")
		case r == '\t' && attr:
			sb.WriteString("&#x9;")
		case r == '\n' && attr:
			sb.WriteString("&#xA;")
		case r == '\r':
			sb.WriteString("&#xD;")
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// readBack parses doc and returns the text of its root, or with attr the
// value of the root's attribute a, and whether it parsed.
func readBack(doc string, attr bool) (string, bool) {
	d := NewDecoder([]byte(doc), nil)
	var sb strings.Builder
	var tok Token
	for {
		err := d.Next(&tok)
		if err == io.EOF {
			return sb.String(), true
		}
		if err != nil {
			return "", false
		}
		switch {
		case attr && tok.Kind == KindStartElement:
			v, _ := tok.Attr("", "a")
			sb.WriteString(v)
		case !attr && tok.Kind == KindText:
			sb.WriteString(tok.Data())
		}
	}
}

// TestAppendEscaped checks the escaper against the rune-loop reference
// on random strings, and its clean verdict against what the decoder reads
// back from the escaped text and attribute value.
func TestAppendEscaped(t *testing.T) {
	pieces := []string{"a", "&", "<", ">", `"`, "'", "\t", "\n", "\r", "]]>", "\x01", "\x7f", "\u00e9", "\u2028", "\uFFFD", "\uFFFE", "\xff", "\xe2\x82", "\U0001D11E"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		s := sb.String()
		for _, attr := range []bool{false, true} {
			esc, clean := AppendEscaped(nil, s, attr)
			if want := refEscape(s, attr); string(esc) != want {
				t.Fatalf("%q (attr %v): escaped %q, want %q", s, attr, esc, want)
			}
			doc := "<e>" + string(esc) + "</e>"
			if attr {
				doc = `<e a="` + string(esc) + `"/>`
			}
			if got, ok := readBack(doc, attr); clean != (ok && got == s) {
				t.Fatalf("%q (attr %v): clean=%v, decoder read %q (ok=%v)", s, attr, clean, got, ok)
			}
		}
	}
}

// TestAppendMarkup checks the markup helpers on the cases a serializer
// must get right: a CDATA section holding "]]>", a PI without data, and a
// prefixed attribute whose value needs escaping.
func TestAppendMarkup(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{string(AppendCData(nil, "a]]>b]]]>")), "<![CDATA[a]]]]><![CDATA[>b]]]]]><![CDATA[>]]>"},
		{string(AppendCData(nil, "")), "<![CDATA[]]>"},
		{string(AppendComment(nil, " c ")), "<!-- c -->"},
		{string(AppendProcInst(nil, "pi", "")), "<?pi?>"},
		{string(AppendProcInst(nil, "pi", "d")), "<?pi d?>"},
		{string(AppendAttr(nil, Name{Prefix: "p", Local: "a"}, "<\"&\n")), ` p:a="&lt;&quot;&amp;&#xA;"`},
		{string(AppendEndTag(nil, Name{Local: "e"})), "</e>"},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}
