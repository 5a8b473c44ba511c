package xmlparser

// SWAR (SIMD-within-a-register) scanning for the tokenizer hot loops.
//
// Character data, CDATA sections and attribute values are overwhelmingly
// runs of plain ASCII bytes; the scanner's job is to find the rare byte
// that needs attention (markup delimiters, references, normalization,
// controls, non-ASCII). These helpers examine eight bytes per step with
// unsigned word arithmetic: a run is admitted 8 bytes at a time and the
// word that trips a mask is re-examined by an exact per-byte table, so
// the masks are allowed (and expected) to over-approximate.
//
// The mask algebra is the classic one: for a little-endian word w,
//
//	hasless(w, n) = (w - n*0x0101..) & ^w & 0x8080..
//	equal(w, b)   = hasless(w ^ (b*0x0101..), 1)
//
// flags the high bit of every lane whose byte is < n (resp. == b). Borrow
// propagation can flag lanes *after* a genuine hit, never before it, so
// the first flagged lane is always a genuine hit — exactly the guarantee
// the two-phase (word sweep, then byte verify) structure needs. That
// guarantee holds for a union of such masks, not for a difference: a
// mask subtracted with &^ must flag exactly its own lanes (swarEqExact),
// or the borrow of a hit it removes would clear the genuine hit in the
// next lane.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"unicode/utf8"
)

const (
	swarOnes  = 0x0101010101010101
	swarLows  = 0x7f7f7f7f7f7f7f7f
	swarHighs = 0x8080808080808080
)

// swarLess flags lanes whose byte value is < n (n must be <= 128).
func swarLess(w uint64, n byte) uint64 {
	return (w - swarOnes*uint64(n)) & ^w & swarHighs
}

// swarEq flags lanes whose byte equals b.
func swarEq(w uint64, b byte) uint64 {
	return swarLess(w^(swarOnes*uint64(b)), 1)
}

// swarEqExact flags exactly the lanes whose byte equals b. No lane's sum
// carries into the next (7 bits plus 0x7f stay below 0x100), so it never
// flags a lane after a hit: it is the form to subtract from another mask.
func swarEqExact(w uint64, b byte) uint64 {
	x := w ^ (swarOnes * uint64(b))
	return ^((x&swarLows + swarLows) | x) & swarHighs
}

// specialText marks bytes that end a bulk character-data run: markup and
// reference starters, ']' (for the "]]>" check), CR (end-of-line
// normalization), illegal controls, and all non-ASCII lead/continuation
// bytes (validated as whole runs separately). Tab and LF are plain — LF
// only affects position accounting, which the bulk advance recomputes.
var specialText [256]bool

// specialAttr marks bytes that end a bulk attribute-value run: both quote
// kinds, '<', '&', every control (tab/LF/CR normalize to space), and
// non-ASCII bytes.
var specialAttr [256]bool

func init() {
	for c := 0; c < 256; c++ {
		b := byte(c)
		switch {
		case c >= 0x80:
			specialText[c] = true
			specialAttr[c] = true
		case b == '<' || b == '&':
			specialText[c] = true
			specialAttr[c] = true
		case b == ']' || b == '\r':
			specialText[c] = true
		case c < 0x20:
			specialText[c] = b != '\t' && b != '\n'
			specialAttr[c] = true
		}
		if b == '"' || b == '\'' {
			specialAttr[c] = true
		}
	}
	// CR is a control, caught by the c < 0x20 arm for attributes too.
	specialAttr['\r'] = true
}

// textMask flags lanes that may hold a special character-data byte.
func textMask(w uint64) uint64 {
	m := w & swarHighs // non-ASCII
	m |= swarEq(w, '<') | swarEq(w, '&') | swarEq(w, ']') | swarEq(w, '\r')
	ctl := swarLess(w, 0x20) &^ (swarEqExact(w, '\t') | swarEqExact(w, '\n'))
	return m | ctl
}

// textStopMask flags the lanes the text loop (Decoder.text) must look at:
// non-ASCII bytes, every byte below 0x20 (LF, which moves the line, and
// tab and CR with it), '<', '&' and ']'. It is a union, so its first
// flagged lane is the word's first such byte.
func textStopMask(w uint64) uint64 {
	return w&swarHighs | swarLess(w, 0x20) | swarEq(w, '<') | swarEq(w, '&') | swarEq(w, ']')
}

// attrMask flags lanes that may hold a special attribute-value byte.
func attrMask(w uint64) uint64 {
	m := w & swarHighs
	m |= swarEq(w, '<') | swarEq(w, '&') | swarEq(w, '"') | swarEq(w, '\'')
	return m | swarLess(w, 0x20)
}

// scanPlainText returns the length of the prefix of s containing only
// plain character-data bytes (no delimiters, references, CR, controls or
// non-ASCII). Words are admitted 8 at a time; the word that trips the
// mask — or the sub-word tail — is resolved by the exact table.
func scanPlainText(s []byte) int {
	i := 0
	for i+8 <= len(s) {
		if textMask(binary.LittleEndian.Uint64(s[i:])) != 0 {
			break
		}
		i += 8
	}
	for i < len(s) && !specialText[s[i]] {
		i++
	}
	return i
}

// scanPlainAttr is scanPlainText for attribute values.
func scanPlainAttr(s []byte) int {
	i := 0
	for i+8 <= len(s) {
		if attrMask(binary.LittleEndian.Uint64(s[i:])) != 0 {
			break
		}
		i += 8
	}
	for i < len(s) && !specialAttr[s[i]] {
		i++
	}
	return i
}

// Encodings of the two non-character code points that are valid UTF-8 but
// illegal XML. 0xEF can never be a continuation byte, so any occurrence
// of these sequences sits on a rune boundary.
var (
	seqFFFE = []byte("\xef\xbf\xbe")
	seqFFFF = []byte("\xef\xbf\xbf")
)

// validXMLRun reports whether seg — a run of non-ASCII bytes — is valid
// UTF-8 containing no U+FFFE/U+FFFF. UTF-8 validity is decided over the
// whole run at once (amortized) instead of rune by rune; callers fall
// back to the per-rune path (which replaces invalid sequences with
// U+FFFD and pins down exact error positions) when this returns false.
func validXMLRun(seg []byte) bool {
	if !utf8.Valid(seg) {
		return false
	}
	return !bytes.Contains(seg, seqFFFE) && !bytes.Contains(seg, seqFFFF)
}

// checkCharBytes verifies every character of b is a legal XML character,
// sweeping plain ASCII 8 bytes at a time. Decoding matches a for-range
// loop over string(b): invalid UTF-8 yields U+FFFD (legal), so the only
// rejections are ASCII controls outside \t\n\r and encoded U+FFFE/U+FFFF.
func checkCharBytes(b []byte) *charError {
	i := 0
	for i < len(b) {
		if i+8 <= len(b) {
			w := binary.LittleEndian.Uint64(b[i:])
			ctl := swarLess(w, 0x20) &^ (swarEqExact(w, '\t') | swarEqExact(w, '\n') | swarEqExact(w, '\r'))
			if w&swarHighs == 0 && ctl == 0 {
				i += 8
				continue
			}
		}
		c := b[i]
		switch {
		case c == '\t' || c == '\n' || c == '\r':
			i++
		case c < 0x20:
			return &charError{r: rune(c)}
		case c < 0x80:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == 0xFFFE || r == 0xFFFF {
				return &charError{r: r}
			}
			i += size
		}
	}
	return nil
}

// charError is an illegal-character report, formatted like checkChars'.
type charError struct{ r rune }

func (e *charError) Error() string { return fmt.Sprintf("U+%04X", e.r) }
