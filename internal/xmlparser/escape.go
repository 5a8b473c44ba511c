package xmlparser

import "unicode/utf8"

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
