package xsdtypes

import (
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/xmlparser"
)

// ValueKind identifies the primitive value space a Value belongs to.
type ValueKind int

// Value kinds.
const (
	VString ValueKind = iota
	VBool
	VDecimal
	VFloat // float and double share the representation
	VDuration
	VDateTime // all seven temporal types
	VHexBinary
	VBase64Binary
	VAnyURI
	VQName
	VNotation
	VList
)

// Value is a parsed simple-type value.
type Value struct {
	Kind  ValueKind
	Str   string // VString, VAnyURI, VQName (lexical prefix:local), VNotation
	Bool  bool
	Dec   Decimal
	F     float64
	DT    DateTime
	Dur   Duration
	Bytes []byte
	Items []Value
}

// String renders the value's canonical lexical form.
func (v Value) String() string {
	switch v.Kind {
	case VString, VAnyURI, VQName, VNotation:
		return v.Str
	case VBool:
		if v.Bool {
			return "true"
		}
		return "false"
	case VDecimal:
		return v.Dec.String()
	case VFloat:
		switch {
		case math.IsInf(v.F, 1):
			return "INF"
		case math.IsInf(v.F, -1):
			return "-INF"
		case math.IsNaN(v.F):
			return "NaN"
		}
		return strconv.FormatFloat(v.F, 'G', -1, 64)
	case VDuration:
		return v.Dur.String()
	case VDateTime:
		return v.DT.String()
	case VHexBinary:
		return strings.ToUpper(hex.EncodeToString(v.Bytes))
	case VBase64Binary:
		return base64.StdEncoding.EncodeToString(v.Bytes)
	case VList:
		parts := make([]string, len(v.Items))
		for i, it := range v.Items {
			parts[i] = it.String()
		}
		return strings.Join(parts, " ")
	}
	return ""
}

// Equal reports value-space equality.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case VString, VAnyURI, VQName, VNotation:
		return v.Str == w.Str
	case VBool:
		return v.Bool == w.Bool
	case VDecimal:
		return v.Dec.Cmp(w.Dec) == 0
	case VFloat:
		return v.F == w.F || (math.IsNaN(v.F) && math.IsNaN(w.F))
	case VDuration:
		return v.Dur.Cmp(w.Dur) == 0
	case VDateTime:
		return v.DT.Cmp(w.DT) == 0
	case VHexBinary, VBase64Binary:
		return string(v.Bytes) == string(w.Bytes)
	case VList:
		if len(v.Items) != len(w.Items) {
			return false
		}
		for i := range v.Items {
			if !v.Items[i].Equal(w.Items[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare orders two values of the same primitive kind; it returns an
// error for unordered kinds (booleans, QNames, binaries) or mismatched
// kinds.
func Compare(v, w Value) (int, error) {
	if v.Kind != w.Kind {
		return 0, fmt.Errorf("cannot compare %v and %v values", v.Kind, w.Kind)
	}
	switch v.Kind {
	case VDecimal:
		return v.Dec.Cmp(w.Dec), nil
	case VFloat:
		if math.IsNaN(v.F) || math.IsNaN(w.F) {
			return 0, fmt.Errorf("NaN is unordered")
		}
		switch {
		case v.F < w.F:
			return -1, nil
		case v.F > w.F:
			return 1, nil
		default:
			return 0, nil
		}
	case VDateTime:
		return v.DT.Cmp(w.DT), nil
	case VDuration:
		return v.Dur.Cmp(w.Dur), nil
	case VString:
		return strings.Compare(v.Str, w.Str), nil
	default:
		return 0, fmt.Errorf("values of this kind are unordered")
	}
}

// WhiteSpace is the whiteSpace facet value.
type WhiteSpace int

// WhiteSpace modes.
const (
	WSPreserve WhiteSpace = iota
	WSReplace
	WSCollapse
)

// ApplyWhiteSpace normalizes s according to the whiteSpace facet. An
// input that is already normalized is returned as is, without allocating.
func ApplyWhiteSpace(ws WhiteSpace, s string) string {
	switch ws {
	case WSPreserve:
		return s
	case WSReplace:
		if strings.IndexAny(s, "\t\n\r") < 0 && utf8.ValidString(s) {
			return s
		}
		// Ranging over the string also turns invalid UTF-8 into U+FFFD.
		var sb strings.Builder
		sb.Grow(len(s))
		for _, r := range s {
			if r == '\t' || r == '\n' || r == '\r' {
				sb.WriteByte(' ')
			} else {
				sb.WriteRune(r)
			}
		}
		return sb.String()
	default: // WSCollapse
		if collapsed(s) {
			return s
		}
		// The separators are ASCII, so a byte scan splits exactly where a
		// rune scan would: fields are copied whole, single-space joined.
		var sb strings.Builder
		sb.Grow(len(s))
		for i := 0; i < len(s); {
			if isWS(s[i]) {
				i++
				continue
			}
			j := i + 1
			for j < len(s) && !isWS(s[j]) {
				j++
			}
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(s[i:j])
			i = j
		}
		return sb.String()
	}
}

// isWS reports whether c is one of the four whitespace characters the
// whiteSpace facet acts on.
func isWS(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// collapsed reports whether s is already whiteSpace-collapsed: no tab, CR
// or LF, no leading or trailing space, and no two spaces in a row.
func collapsed(s string) bool {
	prevSpace := true // a leading space is not collapsed
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\t', '\n', '\r':
			return false
		case ' ':
			if prevSpace {
				return false
			}
			prevSpace = true
		default:
			prevSpace = false
		}
	}
	return !prevSpace || s == ""
}

// parseBool parses xs:boolean.
func parseBool(s string) (bool, error) {
	switch s {
	case "true", "1":
		return true, nil
	case "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("bad boolean %q", s)
}

// parseFloat parses xs:float/xs:double with the XSD special values.
func parseFloat(s string, bits int) (float64, error) {
	switch s {
	case "INF", "+INF":
		return math.Inf(1), nil
	case "-INF":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	// XSD does not allow hex floats, "Inf", "nan", or leading/trailing
	// junk; ParseFloat is close enough after excluding those spellings.
	lower := strings.ToLower(s)
	if strings.Contains(lower, "inf") || strings.Contains(lower, "nan") || strings.Contains(lower, "x") || strings.Contains(lower, "p") {
		return 0, fmt.Errorf("bad float %q", s)
	}
	f, err := strconv.ParseFloat(s, bits)
	if err != nil {
		return 0, fmt.Errorf("bad float %q", s)
	}
	return f, nil
}

// stdBase64 decodes standard base64 with padding.
func stdBase64(s string) ([]byte, error) {
	return base64.StdEncoding.DecodeString(s)
}

// parseQNameLexical validates a QName lexical form (prefix resolution is a
// schema-level concern handled by the validator, which has the namespace
// context).
func parseQNameLexical(s string) error {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		if !xmlparser.IsNCName(s) {
			return fmt.Errorf("bad QName %q", s)
		}
		return nil
	}
	if !xmlparser.IsNCName(s[:i]) || !xmlparser.IsNCName(s[i+1:]) {
		return fmt.Errorf("bad QName %q", s)
	}
	return nil
}
