package xsdregex

import (
	"sort"
	"unicode"
)

// maxRune is the upper bound of the XML character space.
const maxRune = 0x10FFFF

// RuneRange is an inclusive range of runes.
type RuneRange struct {
	Lo, Hi rune
}

// CharSet is a set of runes, held as sorted, non-overlapping,
// non-adjacent inclusive ranges.
type CharSet struct {
	Ranges []RuneRange
}

// Contains reports whether the set contains r.
func (s CharSet) Contains(r rune) bool {
	i := sort.Search(len(s.Ranges), func(i int) bool { return s.Ranges[i].Hi >= r })
	return i < len(s.Ranges) && s.Ranges[i].Lo <= r
}

// normalize sorts and merges ranges.
func normalize(ranges []RuneRange) []RuneRange {
	if len(ranges) == 0 {
		return nil
	}
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i].Lo != ranges[j].Lo {
			return ranges[i].Lo < ranges[j].Lo
		}
		return ranges[i].Hi < ranges[j].Hi
	})
	out := ranges[:1]
	for _, r := range ranges[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// NewCharSet builds a set from arbitrary ranges.
func NewCharSet(ranges ...RuneRange) CharSet {
	cp := append([]RuneRange(nil), ranges...)
	return CharSet{Ranges: normalize(cp)}
}

// SingleRune returns the set containing exactly r.
func SingleRune(r rune) CharSet { return CharSet{Ranges: []RuneRange{{r, r}}} }

// Union returns s ∪ t.
func (s CharSet) Union(t CharSet) CharSet {
	return NewCharSet(append(append([]RuneRange(nil), s.Ranges...), t.Ranges...)...)
}

// Negate returns the complement of s within [0, maxRune].
func (s CharSet) Negate() CharSet {
	var out []RuneRange
	var next rune
	for _, r := range s.Ranges {
		if r.Lo > next {
			out = append(out, RuneRange{next, r.Lo - 1})
		}
		next = r.Hi + 1
	}
	if next <= maxRune {
		out = append(out, RuneRange{next, maxRune})
	}
	return CharSet{Ranges: out}
}

// Subtract returns s \ t (the character-class subtraction operator).
func (s CharSet) Subtract(t CharSet) CharSet {
	return s.Intersect(t.Negate())
}

// Intersect returns s ∩ t.
func (s CharSet) Intersect(t CharSet) CharSet {
	var out []RuneRange
	i, j := 0, 0
	for i < len(s.Ranges) && j < len(t.Ranges) {
		a, b := s.Ranges[i], t.Ranges[j]
		lo := max(a.Lo, b.Lo)
		hi := min(a.Hi, b.Hi)
		if lo <= hi {
			out = append(out, RuneRange{lo, hi})
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return CharSet{Ranges: out}
}

// Count returns the number of runes in the set.
func (s CharSet) Count() int64 {
	var n int64
	for _, r := range s.Ranges {
		n += int64(r.Hi) - int64(r.Lo) + 1
	}
	return n
}

// fromUnicodeTable converts a unicode.RangeTable to a CharSet.
func fromUnicodeTable(t *unicode.RangeTable) CharSet {
	var ranges []RuneRange
	for _, r := range t.R16 {
		if r.Stride == 1 {
			ranges = append(ranges, RuneRange{rune(r.Lo), rune(r.Hi)})
			continue
		}
		for c := rune(r.Lo); c <= rune(r.Hi); c += rune(r.Stride) {
			ranges = append(ranges, RuneRange{c, c})
		}
	}
	for _, r := range t.R32 {
		if r.Stride == 1 {
			ranges = append(ranges, RuneRange{rune(r.Lo), rune(r.Hi)})
			continue
		}
		for c := rune(r.Lo); c <= rune(r.Hi); c += rune(r.Stride) {
			ranges = append(ranges, RuneRange{c, c})
		}
	}
	return NewCharSet(ranges...)
}

// Named character classes of the dialect.

var (
	setDot = NewCharSet(RuneRange{0, maxRune}).Subtract(NewCharSet(RuneRange{'\n', '\n'}, RuneRange{'\r', '\r'}))
	setS   = NewCharSet(RuneRange{' ', ' '}, RuneRange{'\t', '\t'}, RuneRange{'\n', '\n'}, RuneRange{'\r', '\r'})
)

// setD is \d: Unicode decimal digits (category Nd).
func setD() CharSet { return fromUnicodeTable(unicode.Nd) }

// setW is \w: all characters except those in categories P, Z and C.
func setW() CharSet {
	punct := fromUnicodeTable(unicode.P)
	sep := fromUnicodeTable(unicode.Z)
	other := fromUnicodeTable(unicode.C)
	return NewCharSet(RuneRange{0, maxRune}).Subtract(punct.Union(sep).Union(other))
}

// setI is \i: XML NameStartChar (including ':').
func setI() CharSet {
	return NewCharSet(
		RuneRange{':', ':'}, RuneRange{'A', 'Z'}, RuneRange{'_', '_'}, RuneRange{'a', 'z'},
		RuneRange{0xC0, 0xD6}, RuneRange{0xD8, 0xF6}, RuneRange{0xF8, 0x2FF},
		RuneRange{0x370, 0x37D}, RuneRange{0x37F, 0x1FFF}, RuneRange{0x200C, 0x200D},
		RuneRange{0x2070, 0x218F}, RuneRange{0x2C00, 0x2FEF}, RuneRange{0x3001, 0xD7FF},
		RuneRange{0xF900, 0xFDCF}, RuneRange{0xFDF0, 0xFFFD}, RuneRange{0x10000, 0xEFFFF},
	)
}

// setC is \c: XML NameChar.
func setC() CharSet {
	return setI().Union(NewCharSet(
		RuneRange{'-', '-'}, RuneRange{'.', '.'}, RuneRange{'0', '9'},
		RuneRange{0xB7, 0xB7}, RuneRange{0x300, 0x36F}, RuneRange{0x203F, 0x2040},
	))
}

// unicodeBlocks maps the block names accepted in \p{IsXxx} escapes to their
// ranges. This covers the blocks that appear in practice; unknown block
// names are a compile error.
var unicodeBlocks = map[string]RuneRange{
	"BasicLatin":                {0x0000, 0x007F},
	"Latin-1Supplement":         {0x0080, 0x00FF},
	"LatinExtended-A":           {0x0100, 0x017F},
	"LatinExtended-B":           {0x0180, 0x024F},
	"IPAExtensions":             {0x0250, 0x02AF},
	"SpacingModifierLetters":    {0x02B0, 0x02FF},
	"CombiningDiacriticalMarks": {0x0300, 0x036F},
	"Greek":                     {0x0370, 0x03FF},
	"Cyrillic":                  {0x0400, 0x04FF},
	"Armenian":                  {0x0530, 0x058F},
	"Hebrew":                    {0x0590, 0x05FF},
	"Arabic":                    {0x0600, 0x06FF},
	"Devanagari":                {0x0900, 0x097F},
	"Thai":                      {0x0E00, 0x0E7F},
	"Hiragana":                  {0x3040, 0x309F},
	"Katakana":                  {0x30A0, 0x30FF},
	"CJKUnifiedIdeographs":      {0x4E00, 0x9FFF},
	"HangulSyllables":           {0xAC00, 0xD7A3},
	"PrivateUse":                {0xE000, 0xF8FF},
	"GeneralPunctuation":        {0x2000, 0x206F},
	"CurrencySymbols":           {0x20A0, 0x20CF},
	"Arrows":                    {0x2190, 0x21FF},
	"MathematicalOperators":     {0x2200, 0x22FF},
	"BoxDrawing":                {0x2500, 0x257F},
	"GeometricShapes":           {0x25A0, 0x25FF},
	"MiscellaneousSymbols":      {0x2600, 0x26FF},
}

// categorySet resolves a \p{Name} category or block escape.
func categorySet(name string) (CharSet, bool) {
	if len(name) > 2 && name[:2] == "Is" {
		if rg, ok := unicodeBlocks[name[2:]]; ok {
			return NewCharSet(rg), true
		}
		if tbl, ok := unicode.Scripts[name[2:]]; ok {
			return fromUnicodeTable(tbl), true
		}
		return CharSet{}, false
	}
	if tbl, ok := unicode.Categories[name]; ok {
		return fromUnicodeTable(tbl), true
	}
	// One-letter groupings (L, M, N, P, S, Z, C).
	switch name {
	case "L":
		return fromUnicodeTable(unicode.L), true
	case "M":
		return fromUnicodeTable(unicode.M), true
	case "N":
		return fromUnicodeTable(unicode.N), true
	case "P":
		return fromUnicodeTable(unicode.P), true
	case "S":
		return fromUnicodeTable(unicode.S), true
	case "Z":
		return fromUnicodeTable(unicode.Z), true
	case "C":
		return fromUnicodeTable(unicode.C), true
	}
	return CharSet{}, false
}
