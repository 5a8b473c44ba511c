package xmlparser

// Character classification per XML 1.0 (Fifth Edition).

import "unicode/utf8"

// IsChar reports whether r is a legal XML character (production [2]).
func IsChar(r rune) bool {
	return r == 0x9 || r == 0xA || r == 0xD ||
		(r >= 0x20 && r <= 0xD7FF) ||
		(r >= 0xE000 && r <= 0xFFFD) ||
		(r >= 0x10000 && r <= 0x10FFFF)
}

// IsSpace reports whether r is XML whitespace (production [3]).
func IsSpace(r rune) bool {
	return r == 0x20 || r == 0x9 || r == 0xD || r == 0xA
}

// nameStartRanges holds the NameStartChar ranges of production [4],
// excluding ':' which is handled separately for namespace processing.
var nameStartRanges = [][2]rune{
	{'A', 'Z'},
	{'_', '_'},
	{'a', 'z'},
	{0xC0, 0xD6},
	{0xD8, 0xF6},
	{0xF8, 0x2FF},
	{0x370, 0x37D},
	{0x37F, 0x1FFF},
	{0x200C, 0x200D},
	{0x2070, 0x218F},
	{0x2C00, 0x2FEF},
	{0x3001, 0xD7FF},
	{0xF900, 0xFDCF},
	{0xFDF0, 0xFFFD},
	{0x10000, 0xEFFFF},
}

// nameExtraRanges holds the additional NameChar ranges of production [4a],
// again excluding ':'.
var nameExtraRanges = [][2]rune{
	{'-', '-'},
	{'.', '.'},
	{'0', '9'},
	{0xB7, 0xB7},
	{0x300, 0x36F},
	{0x203F, 0x2040},
}

func inRanges(r rune, ranges [][2]rune) bool {
	for _, rg := range ranges {
		if r >= rg[0] && r <= rg[1] {
			return true
		}
	}
	return false
}

// asciiNameStart and asciiName are lookup tables front-ending the range
// scans for the ASCII bytes that dominate real documents; the decoder's
// name scanner indexes them directly per byte.
var (
	asciiNameStart [128]bool
	asciiName      [128]bool
)

func init() {
	for b := 0; b < 128; b++ {
		r := rune(b)
		asciiNameStart[b] = r == ':' || inRanges(r, nameStartRanges)
		asciiName[b] = asciiNameStart[b] || inRanges(r, nameExtraRanges)
	}
}

// IsNameStartChar reports whether r may start an XML name. The colon is
// accepted (it is a NameStartChar in XML 1.0); namespace processing rejects
// misplaced colons separately.
func IsNameStartChar(r rune) bool {
	if r >= 0 && r < 128 {
		return asciiNameStart[r]
	}
	return inRanges(r, nameStartRanges)
}

// IsNameChar reports whether r may appear in an XML name after the first
// character.
func IsNameChar(r rune) bool {
	if r >= 0 && r < 128 {
		return asciiName[r]
	}
	return inRanges(r, nameStartRanges) || inRanges(r, nameExtraRanges)
}

// IsName reports whether s is a legal XML Name (production [5]).
func IsName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 {
			if !IsNameStartChar(r) {
				return false
			}
		} else if !IsNameChar(r) {
			return false
		}
	}
	return true
}

// IsNCName reports whether s is a legal namespace-aware NCName: a Name with
// no colon. ASCII bytes are classified by the name tables; only a byte >=
// 0x80 is decoded and range-checked.
func IsNCName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c == ':' || !asciiName[c] || i == 0 && !asciiNameStart[c] {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if !inRanges(r, nameStartRanges) && (i == 0 || !inRanges(r, nameExtraRanges)) {
			return false
		}
		i += size
	}
	return true
}

// IsNmtoken reports whether s is a legal Nmtoken (production [7]): one or
// more NameChars.
func IsNmtoken(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !IsNameChar(r) {
			return false
		}
	}
	return true
}
