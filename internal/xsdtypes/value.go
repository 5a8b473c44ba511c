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
type ValueKind uint32

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

// Value is a parsed simple-type value. It is 48 bytes and seven integer
// fields, so Go's register ABI passes it, and returns it beside an error,
// without touching memory (DESIGN.md, "Value representation"). Kind and
// Str are read directly; every other payload through its accessor.
//
// Per kind:
//   - VString, VAnyURI, VQName (lexical prefix:local), VNotation: Str.
//   - VBool: w0 is 0 or 1.
//   - VDecimal: Str is the significant digits "Int[.Frac]", a substring
//     of the lexical form; w0 is len(Int); bits holds the sign.
//   - VFloat: w0 holds the float64 bits.
//   - VDateTime: w0 is the year, w1 the month to nanosecond fields, bits
//     the temporal kind and the timezone.
//   - VDuration, VHexBinary, VBase64Binary, VList: ext.
type Value struct {
	Kind ValueKind
	bits uint32 // sub-kind and flags, sharing Kind's word
	Str  string
	w0   uint64
	w1   uint64
	ext  *valueExt // the rare kinds, which allocate anyway
}

// valueExt carries the payloads that do not fit in a Value's words.
type valueExt struct {
	dur   Duration
	bytes []byte
	items []Value
}

// decimalNeg is the sign flag of a VDecimal value's bits.
const decimalNeg = 1

// BoolValue returns an xs:boolean value.
func BoolValue(b bool) Value {
	v := Value{Kind: VBool}
	if b {
		v.w0 = 1
	}
	return v
}

// FloatValue returns an xs:float or xs:double value.
func FloatValue(f float64) Value {
	return Value{Kind: VFloat, w0: math.Float64bits(f)}
}

// DecimalValue returns an xs:decimal value. A d with a fraction is
// copied into one string; parsing builds decimals without copying.
func DecimalValue(d Decimal) Value {
	v := Value{Kind: VDecimal, Str: d.Int, w0: uint64(len(d.Int))}
	if d.Frac != "" {
		v.Str = d.Int + "." + d.Frac
	}
	if d.Neg && !d.IsZero() {
		v.bits = decimalNeg
	}
	return v
}

// DurationValue returns an xs:duration value.
func DurationValue(d Duration) Value {
	return Value{Kind: VDuration, ext: &valueExt{dur: d}}
}

// BinaryValue returns a VHexBinary or VBase64Binary value over b, which
// the value keeps.
func BinaryValue(kind ValueKind, b []byte) Value {
	return Value{Kind: kind, ext: &valueExt{bytes: b}}
}

// ListValue returns a list value over items, which the value keeps.
func ListValue(items []Value) Value {
	return Value{Kind: VList, ext: &valueExt{items: items}}
}

// Boolean returns a VBool value's truth value.
func (v Value) Boolean() bool { return v.w0 != 0 }

// Float returns a VFloat value.
func (v Value) Float() float64 { return math.Float64frombits(v.w0) }

// Decimal returns a VDecimal value as a view of its digits: nothing is
// copied.
func (v Value) Decimal() Decimal {
	split := int(v.w0)
	d := Decimal{Neg: v.bits&decimalNeg != 0, Int: v.Str[:split]}
	if split < len(v.Str) {
		d.Frac = v.Str[split+1:]
	}
	return d
}

// Duration returns a VDuration value.
func (v Value) Duration() Duration {
	if v.ext == nil {
		return Duration{}
	}
	return v.ext.dur
}

// Binary returns a VHexBinary or VBase64Binary value's octets. The slice
// is the value's own.
func (v Value) Binary() []byte {
	if v.ext == nil {
		return nil
	}
	return v.ext.bytes
}

// List returns a VList value's items. The slice is the value's own.
func (v Value) List() []Value {
	if v.ext == nil {
		return nil
	}
	return v.ext.items
}

// String renders the value's canonical lexical form.
func (v Value) String() string {
	switch v.Kind {
	case VString, VAnyURI, VQName, VNotation:
		return v.Str
	case VBool:
		if v.Boolean() {
			return "true"
		}
		return "false"
	case VDecimal:
		if v.bits&decimalNeg == 0 && v.w0 > 0 {
			return v.Str // the digits are the canonical form
		}
		return v.Decimal().String()
	case VFloat:
		f := v.Float()
		switch {
		case math.IsInf(f, 1):
			return "INF"
		case math.IsInf(f, -1):
			return "-INF"
		case math.IsNaN(f):
			return "NaN"
		}
		return strconv.FormatFloat(f, 'G', -1, 64)
	case VDuration:
		return v.Duration().String()
	case VDateTime:
		return v.DateTime().String()
	case VHexBinary:
		return strings.ToUpper(hex.EncodeToString(v.Binary()))
	case VBase64Binary:
		return base64.StdEncoding.EncodeToString(v.Binary())
	case VList:
		items := v.List()
		parts := make([]string, len(items))
		for i, it := range items {
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
		return v.Boolean() == w.Boolean()
	case VDecimal: // normalized digits: equal values have equal digits
		return v.Str == w.Str && v.bits&decimalNeg == w.bits&decimalNeg
	case VFloat:
		f, g := v.Float(), w.Float()
		return f == g || (math.IsNaN(f) && math.IsNaN(g))
	case VDuration:
		return v.Duration().equal(w.Duration())
	case VDateTime:
		return v.DateTime().Cmp(w.DateTime()) == 0
	case VHexBinary, VBase64Binary:
		return string(v.Binary()) == string(w.Binary())
	case VList:
		a, b := v.List(), w.List()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
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
func Compare(v, w Value) (int, error) { return compare(&v, &w) }

// compare is Compare reading the values through pointers.
func compare(v, w *Value) (int, error) {
	if v.Kind != w.Kind {
		return 0, fmt.Errorf("cannot compare %v and %v values", v.Kind, w.Kind)
	}
	switch v.Kind {
	case VDecimal:
		return cmpDecimal(v, w), nil
	case VFloat:
		f, g := v.Float(), w.Float()
		if math.IsNaN(f) || math.IsNaN(g) {
			return 0, fmt.Errorf("NaN is unordered")
		}
		switch {
		case f < g:
			return -1, nil
		case f > g:
			return 1, nil
		default:
			return 0, nil
		}
	case VDateTime:
		return v.DateTime().Cmp(w.DateTime()), nil
	case VDuration:
		return v.Duration().Cmp(w.Duration()), nil
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
