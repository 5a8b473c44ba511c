package bind

// The JSON reader under FromJSON. One linear scan of the body checks it
// against encoding/json's grammar, nesting limit included, and records a
// tape: one entry per value, object keys included, holding the value's
// offset and, for an object or array, the index of the entry just past
// its last member. The walk then reads members and elements off the tape
// and skips any subtree in O(1); nothing builds a generic tree.

import (
	"fmt"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxJSONDepth is encoding/json's nesting limit: 10,000 open objects and
// arrays are accepted, one more is an error.
const maxJSONDepth = 10000

// tapeEntry is one JSON value. An object's members follow it as key and
// value entries in turn, an array's elements as value entries.
type tapeEntry struct {
	// off is the offset of the value's first byte.
	off uint32
	// next is, for an object or array, the index of the entry after its
	// last member; for a scalar, the offset just past it, with needsDecode
	// set on a string holding an escape or a non-ASCII byte.
	next uint32
}

const (
	needsDecode = 1 << 31
	// maxTapeBody is the longest body whose offsets fit beside the flag.
	maxTapeBody = needsDecode - 1
)

// jsonTape is one body and its entries. It is scratch: FromJSON takes one
// from a pool and puts it back when the walk is done.
type jsonTape struct {
	src   string
	ents  []tapeEntry
	stack []uint32 // scan: the objects and arrays not yet closed
}

// syntaxError reports a body encoding/json would refuse.
func syntaxError(off int, format string, args ...any) error {
	return fmt.Errorf("bind: bad JSON: %s at offset %d", fmt.Sprintf(format, args...), off)
}

// quoteByte renders a byte for an error message as encoding/json does.
func quoteByte(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := fmt.Sprintf("%q", string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// scan checks src and records its tape. Exactly one value and
// whitespace around it make a body. src is at most maxTapeBody bytes.
func (t *jsonTape) scan(src string) error {
	t.src, t.ents, t.stack = src, t.ents[:0], t.stack[:0]
	n := len(src)
	i := skipSpace(src, 0)
	var err error
	for {
		// A value starts at i.
		if i >= n {
			return syntaxError(n, "unexpected end of JSON input")
		}
		switch c := src[i]; c {
		case '{', '[':
			if len(t.stack) == maxJSONDepth {
				return syntaxError(i, "exceeded max depth")
			}
			t.stack = append(t.stack, uint32(len(t.ents)))
			t.ents = append(t.ents, tapeEntry{off: uint32(i)})
			i = skipSpace(src, i+1)
			if i < n && src[i] == c+2 { // '}' or ']'
				t.close()
				i++
				break
			}
			if c == '{' {
				if i, err = t.key(i); err != nil {
					return err
				}
			}
			continue
		case '"':
			i, err = t.str(i)
		case 't':
			i, err = t.literal(i, "true")
		case 'f':
			i, err = t.literal(i, "false")
		case 'n':
			i, err = t.literal(i, "null")
		default:
			if c != '-' && !isDigit(c) {
				return syntaxError(i, "invalid character %s looking for beginning of value", quoteByte(c))
			}
			i, err = t.number(i)
		}
		if err != nil {
			return err
		}
		// A value ends at i: close what it completes, up to the next
		// value.
		for {
			i = skipSpace(src, i)
			if len(t.stack) == 0 {
				if i < n {
					return syntaxError(i, "invalid character %s after top-level value", quoteByte(src[i]))
				}
				return nil
			}
			if i >= n {
				return syntaxError(n, "unexpected end of JSON input")
			}
			inObject := src[t.ents[t.stack[len(t.stack)-1]].off] == '{'
			if src[i] == ',' {
				if i = skipSpace(src, i+1); inObject {
					if i, err = t.key(i); err != nil {
						return err
					}
				}
				break
			}
			switch {
			case inObject && src[i] == '}', !inObject && src[i] == ']':
				t.close()
				i++
			case inObject:
				return syntaxError(i, "invalid character %s after object key:value pair", quoteByte(src[i]))
			default:
				return syntaxError(i, "invalid character %s after array element", quoteByte(src[i]))
			}
		}
	}
}

// close ends the innermost open object or array before the next entry.
func (t *jsonTape) close() {
	top := t.stack[len(t.stack)-1]
	t.ents[top].next = uint32(len(t.ents))
	t.stack = t.stack[:len(t.stack)-1]
}

// key records an object key at i and skips the colon after it, returning
// where its value starts.
func (t *jsonTape) key(i int) (int, error) {
	if i >= len(t.src) {
		return 0, syntaxError(i, "unexpected end of JSON input")
	}
	if t.src[i] != '"' {
		return 0, syntaxError(i, "invalid character %s looking for beginning of object key string", quoteByte(t.src[i]))
	}
	i, err := t.str(i)
	if err != nil {
		return 0, err
	}
	i = skipSpace(t.src, i)
	if i >= len(t.src) {
		return 0, syntaxError(i, "unexpected end of JSON input")
	}
	if t.src[i] != ':' {
		return 0, syntaxError(i, "invalid character %s after object key", quoteByte(t.src[i]))
	}
	return skipSpace(t.src, i+1), nil
}

// plainByte marks the bytes a string literal carries with no decoding:
// not a quote, a backslash, a control character or a non-ASCII byte.
var plainByte [256]bool

func init() {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		plainByte[c] = c != '"' && c != '\\'
	}
}

// str records the string literal at i and returns the offset past it.
func (t *jsonTape) str(i int) (int, error) {
	src := t.src
	start, flag := i, uint32(0)
	i++
	for {
		for i < len(src) && plainByte[src[i]] {
			i++
		}
		if i >= len(src) {
			return 0, syntaxError(len(src), "unexpected end of JSON input")
		}
		switch c := src[i]; {
		case c == '"':
			t.ents = append(t.ents, tapeEntry{off: uint32(start), next: uint32(i+1) | flag})
			return i + 1, nil
		case c == '\\':
			flag = needsDecode
			if i+1 >= len(src) {
				return 0, syntaxError(len(src), "unexpected end of JSON input")
			}
			switch src[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(src) {
						return 0, syntaxError(len(src), "unexpected end of JSON input")
					}
					if !isHex(src[k]) {
						return 0, syntaxError(k, "invalid character %s in \\u hexadecimal character escape", quoteByte(src[k]))
					}
				}
				i += 6
			default:
				return 0, syntaxError(i+1, "invalid character %s in string escape code", quoteByte(src[i+1]))
			}
		case c < 0x20:
			return 0, syntaxError(i, "invalid character %s in string literal", quoteByte(c))
		default: // non-ASCII
			flag = needsDecode
			i++
		}
	}
}

// literal records true, false or null at i.
func (t *jsonTape) literal(i int, lit string) (int, error) {
	for k := 1; k < len(lit); k++ {
		if i+k >= len(t.src) {
			return 0, syntaxError(len(t.src), "unexpected end of JSON input")
		}
		if t.src[i+k] != lit[k] {
			return 0, syntaxError(i+k, "invalid character %s in literal %s (expecting %s)", quoteByte(t.src[i+k]), lit, quoteByte(lit[k]))
		}
	}
	t.ents = append(t.ents, tapeEntry{off: uint32(i), next: uint32(i + len(lit))})
	return i + len(lit), nil
}

// number records the number at i: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (t *jsonTape) number(i int) (int, error) {
	src, start := t.src, i
	digit := func(i int, where string) error {
		if i >= len(src) {
			return syntaxError(len(src), "unexpected end of JSON input")
		}
		if !isDigit(src[i]) {
			return syntaxError(i, "invalid character %s %s", quoteByte(src[i]), where)
		}
		return nil
	}
	if src[i] == '-' {
		i++
		if err := digit(i, "in numeric literal"); err != nil {
			return 0, err
		}
	}
	if src[i] == '0' {
		i++
	} else {
		i = skipDigits(src, i+1)
	}
	if i < len(src) && src[i] == '.' {
		if err := digit(i+1, "after decimal point in numeric literal"); err != nil {
			return 0, err
		}
		i = skipDigits(src, i+2)
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		i++
		if i < len(src) && (src[i] == '+' || src[i] == '-') {
			i++
		}
		if err := digit(i, "in exponent of numeric literal"); err != nil {
			return 0, err
		}
		i = skipDigits(src, i+1)
	}
	t.ents = append(t.ents, tapeEntry{off: uint32(start), next: uint32(i)})
	return i, nil
}

func skipSpace(s string, i int) int {
	for i < len(s) {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

func skipDigits(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// kind is the first byte of entry i's value: '{', '[', '"', 't', 'f', 'n',
// or a number's '-' or digit.
func (t *jsonTape) kind(i int) byte { return t.src[t.ents[i].off] }

// end is the index of the entry after entry i's value.
func (t *jsonTape) end(i int) int {
	if k := t.kind(i); k == '{' || k == '[' {
		return int(t.ents[i].next)
	}
	return i + 1
}

// text is a scalar's literal text: a number's digits as written, true,
// false or null.
func (t *jsonTape) text(i int) string {
	e := t.ents[i]
	return t.src[e.off:e.next]
}

// stringAt returns the string at entry i, which must hold a string.
// Without an escape or a non-ASCII byte it is a substring of the body.
func (t *jsonTape) stringAt(i int) string {
	e := t.ents[i]
	s := t.src[e.off+1 : e.next&^needsDecode-1]
	if e.next&needsDecode == 0 {
		return s
	}
	return unquote(s)
}

// unquote decodes a string literal's contents as encoding/json does:
// \uXXXX escapes join surrogate pairs, and a lone surrogate or an invalid
// UTF-8 byte becomes U+FFFD. The scan has checked the escapes.
func unquote(s string) string {
	if strings.IndexByte(s, '\\') < 0 && utf8.ValidString(s) {
		return s
	}
	b := make([]byte, 0, len(s)+2*utf8.UTFMax)
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch c := s[i+1]; c {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := getu4(s[i:])
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(s[i:])); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default: // '"', '\\', '/'
				b = append(b, c)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(b, "�"...)
			} else {
				b = append(b, s[i:i+size]...)
			}
			i += size
		}
	}
	return string(b)
}

// getu4 decodes \uXXXX at the start of s, or returns -1.
func getu4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range []byte(s[2:6]) {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
