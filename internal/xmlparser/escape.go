package xmlparser

import (
	"strings"
	"unicode/utf8"
)

// textEscapes and attrEscapes map the ASCII bytes that character data and
// double-quoted attribute values escape to their references.
var textEscapes, attrEscapes [utf8.RuneSelf]string

func init() {
	for _, m := range []*[utf8.RuneSelf]string{&textEscapes, &attrEscapes} {
		m['&'], m['<'], m['\r'] = "&amp;", "&lt;", "&#xD;"
	}
	textEscapes['>'] = "&gt;"
	// Tab and LF would be normalized to spaces in an attribute value.
	attrEscapes['"'], attrEscapes['\t'], attrEscapes['\n'] = "&quot;", "&#x9;", "&#xA;"
}

// AppendEscaped appends s escaped as character data or, with attr, as a
// double-quoted attribute value. Each invalid UTF-8 byte is written as
// U+FFFD. clean reports whether a Decoder reads s itself back: it is false
// when s holds invalid UTF-8 or a character XML does not allow.
func AppendEscaped(dst []byte, s string, attr bool) (_ []byte, clean bool) {
	escapes := &textEscapes
	if attr {
		escapes = &attrEscapes
	}
	clean = true
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if esc := escapes[c]; esc != "" {
				dst = append(dst, s[last:i]...)
				dst = append(dst, esc...)
				last = i + 1
			} else if !IsChar(rune(c)) {
				clean = false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[last:i]...)
			dst = utf8.AppendRune(dst, utf8.RuneError)
			last = i + 1
			clean = false
		} else if !IsChar(r) {
			clean = false
		}
		i += size
	}
	return append(dst, s[last:]...), clean
}

// The Append helpers below write markup as the DOM serializer does; the
// validator writes a skipped subtree with them too, so the two agree byte
// for byte.

// AppendName appends n as prefix:local, or local alone.
func AppendName(dst []byte, n Name) []byte {
	if n.Prefix != "" {
		dst = append(append(dst, n.Prefix...), ':')
	}
	return append(dst, n.Local...)
}

// AppendAttr appends ` name="value"`, the value escaped.
func AppendAttr(dst []byte, name Name, value string) []byte {
	dst = append(AppendName(append(dst, ' '), name), `="`...)
	dst, _ = AppendEscaped(dst, value, true)
	return append(dst, '"')
}

// AppendEndTag appends "</name>".
func AppendEndTag(dst []byte, name Name) []byte {
	return append(AppendName(append(dst, "</"...), name), '>')
}

// AppendCData appends s as a CDATA section, an embedded "]]>" split across
// two.
func AppendCData(dst []byte, s string) []byte {
	dst = append(dst, "<![CDATA["...)
	for i := strings.Index(s, "]]>"); i >= 0; i = strings.Index(s, "]]>") {
		dst = append(append(dst, s[:i+2]...), "]]><![CDATA["...)
		s = s[i+2:]
	}
	return append(append(dst, s...), "]]>"...)
}

// AppendComment appends "<!--s-->".
func AppendComment(dst []byte, s string) []byte {
	return append(append(append(dst, "<!--"...), s...), "-->"...)
}

// AppendProcInst appends a processing instruction, its data after a space
// when there is any.
func AppendProcInst(dst []byte, target, data string) []byte {
	dst = append(append(dst, "<?"...), target...)
	if data != "" {
		dst = append(append(dst, ' '), data...)
	}
	return append(dst, "?>"...)
}
