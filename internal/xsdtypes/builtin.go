package xsdtypes

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/xmlparser"
	"repro/internal/xsdregex"
)

// XSDNamespace is the XML Schema namespace URI.
const XSDNamespace = "http://www.w3.org/2001/XMLSchema"

// XSINamespace is the XML Schema instance namespace (xsi:type, xsi:nil).
const XSINamespace = "http://www.w3.org/2001/XMLSchema-instance"

// Builtin describes one built-in simple type.
type Builtin struct {
	// Name is the local name in the XSD namespace (e.g. "positiveInteger").
	Name string
	// Base is the type this one is derived from (nil for anySimpleType).
	Base *Builtin
	// Kind is the primitive value space.
	Kind ValueKind
	// Temporal selects the date/time flavor when Kind is VDateTime.
	Temporal TemporalKind
	// FloatBits is 32 or 64 when Kind is VFloat.
	FloatBits int
	// WS is the effective whitespace mode.
	WS WhiteSpace
	// List marks the three built-in list types; ItemType is their item.
	List     bool
	ItemType *Builtin
	// Facets are the constraining facets added at this derivation step.
	Facets Facets
	// Check runs additional lexical checks after whitespace handling
	// (e.g. Name/NCName productions, integer lexical form).
	Check func(lexical string) error
	// steps are the chain's types with a Check or facets, root-most first.
	steps []*Builtin
	// plan is the chain folded (plan.go).
	plan *Plan
}

// registry holds all built-ins by local name.
var registry = map[string]*Builtin{}

func register(b *Builtin) *Builtin {
	if b.Base != nil && b.Kind == 0 {
		// Kind 0 is VString, which doubles as "unset": a type that did
		// not pick a representation inherits the base's wholesale. The
		// string family inherits VString from anySimpleType, which is
		// what an explicit setting would do anyway.
		b.Kind = b.Base.Kind
		b.Temporal = b.Base.Temporal
		b.FloatBits = b.Base.FloatBits
	}
	if b.Check != nil || !b.Facets.IsEmpty() {
		b.steps = append(slices.Clip(b.Base.steps), b)
	} else if b.Base != nil {
		b.steps = b.Base.steps
	}
	var base *Plan
	if b.Base != nil {
		base = b.Base.plan
	}
	b.plan = foldBuiltin(base, b)
	registry[b.Name] = b
	return b
}

// Lookup finds a built-in type by its local name in the XSD namespace.
func Lookup(local string) (*Builtin, bool) {
	b, ok := registry[local]
	return b, ok
}

// MustLookup returns a built-in known to exist.
func MustLookup(local string) *Builtin {
	b, ok := registry[local]
	if !ok {
		panic("xsdtypes: unknown builtin " + local)
	}
	return b
}

// Names returns all registered built-in names (for documentation tests).
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	return out
}

// DerivesFrom reports whether b equals anc or derives from it.
func (b *Builtin) DerivesFrom(anc *Builtin) bool {
	for t := b; t != nil; t = t.Base {
		if t == anc {
			return true
		}
	}
	return false
}

// Primitive returns the primitive ancestor (the type just below
// anySimpleType in b's chain).
func (b *Builtin) Primitive() *Builtin {
	t := b
	for t.Base != nil && t.Base.Base != nil {
		t = t.Base
	}
	return t
}

// Parse validates a lexical value and returns its parsed Value. The input
// is whitespace-normalized per the type and checked by b's folded plan; a
// value the plan rejects is walked by ParseNormalized for its error.
func (b *Builtin) Parse(lexical string) (v Value, err error) {
	norm := ApplyWhiteSpace(b.WS, lexical)
	if b.plan.ParseTo(&v, norm) {
		return v, nil
	}
	return b.ParseNormalized(norm)
}

// ParseNormalized is the walk of Parse for a value already normalized by
// b's whitespace rule or a stricter one: it parses in the primitive's
// lexical space, then checks every step of the derivation chain,
// root-most first, so errors blame the broadest violated constraint.
func (b *Builtin) ParseNormalized(norm string) (Value, error) {
	v, err := b.parsePrimitive(norm)
	for _, st := range b.steps {
		if err == nil && st.Check != nil {
			err = st.Check(norm)
		}
		if err == nil && !st.Facets.IsEmpty() {
			err = st.Facets.Check(v, norm)
		}
	}
	if err != nil {
		return Value{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	return v, nil
}

// Validate checks a lexical value, discarding the parsed form.
func (b *Builtin) Validate(lexical string) error {
	_, err := b.Parse(lexical)
	return err
}

// parsePrimitive parses the whitespace-normalized lexical form in b's
// primitive value space.
func (b *Builtin) parsePrimitive(s string) (v Value, err error) {
	err = b.parseInto(&v, s)
	return v, err
}

// parseInto is parsePrimitive writing the value to *v, which it leaves
// unspecified on an error. Writing through the pointer stores each field
// once: a Value returned up through the calls of the folded path would be
// copied whole at each, from narrower stores than the copy reads.
func (b *Builtin) parseInto(v *Value, s string) error {
	if b.List {
		item := b.ItemType
		var items []Value
		if s != "" {
			for _, part := range strings.Fields(s) {
				iv, err := item.Parse(part)
				if err != nil {
					return err
				}
				items = append(items, iv)
			}
		}
		*v = ListValue(items)
		return nil
	}
	switch b.Kind {
	case VString, VAnyURI, VNotation:
		*v = Value{Kind: b.Kind, Str: s}
	case VQName:
		if err := parseQNameLexical(s); err != nil {
			return err
		}
		*v = Value{Kind: VQName, Str: s}
	case VBool:
		t, err := parseBool(s)
		if err != nil {
			return err
		}
		*v = Value{Kind: VBool}
		if t {
			v.w0 = 1
		}
	case VDecimal:
		neg, digits, split, err := scanDecimal(s)
		if err != nil {
			return err
		}
		*v = Value{Kind: VDecimal, Str: digits, w0: uint64(split)}
		if neg {
			v.bits = decimalNeg
		}
	case VFloat:
		f, err := parseFloat(s, b.FloatBits)
		if err != nil {
			return err
		}
		*v = FloatValue(f)
	case VDuration:
		d, err := ParseDuration(s)
		if err != nil {
			return err
		}
		*v = DurationValue(d)
	case VDateTime:
		var dt DateTime
		if err := parseDateTime(&dt, b.Temporal, s); err != nil {
			return err
		}
		v.setDateTime(&dt)
	case VHexBinary:
		if len(s)%2 != 0 {
			return fmt.Errorf("hexBinary %q has odd length", s)
		}
		bytes, err := hexDecode(s)
		if err != nil {
			return err
		}
		*v = BinaryValue(VHexBinary, bytes)
	case VBase64Binary:
		bytes, err := base64Decode(s)
		if err != nil {
			return err
		}
		*v = BinaryValue(VBase64Binary, bytes)
	default:
		return fmt.Errorf("internal: unhandled kind for %s", b.Name)
	}
	return nil
}

// helper constructors for facet bounds

func intPtr(v int) *int { return &v }

func decVal(s string) *Value {
	v := DecimalValue(MustDecimal(s))
	return &v
}

// checkIntegerLexical enforces the integer lexical space (no '.', at least
// one digit).
func checkIntegerLexical(s string) error {
	t := s
	if strings.HasPrefix(t, "+") || strings.HasPrefix(t, "-") {
		t = t[1:]
	}
	if t == "" {
		return fmt.Errorf("bad integer %q", s)
	}
	for _, r := range t {
		if r < '0' || r > '9' {
			return fmt.Errorf("bad integer %q", s)
		}
	}
	return nil
}

func checkProduction(name string, pred func(string) bool) func(string) error {
	return func(s string) error {
		if !pred(s) {
			return fmt.Errorf("%q is not a valid %s", s, name)
		}
		return nil
	}
}

// languagePattern is the xs:language pattern from the spec.
var languagePattern = xsdregex.MustCompile(`[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*`)

// The built-in type hierarchy.
var (
	AnySimpleType = register(&Builtin{Name: "anySimpleType", Kind: VString, WS: WSPreserve})

	// Primitives.
	String       = register(&Builtin{Name: "string", Base: AnySimpleType, Kind: VString, WS: WSPreserve})
	Boolean      = register(&Builtin{Name: "boolean", Base: AnySimpleType, Kind: VBool, WS: WSCollapse})
	DecimalType  = register(&Builtin{Name: "decimal", Base: AnySimpleType, Kind: VDecimal, WS: WSCollapse})
	Float        = register(&Builtin{Name: "float", Base: AnySimpleType, Kind: VFloat, FloatBits: 32, WS: WSCollapse})
	Double       = register(&Builtin{Name: "double", Base: AnySimpleType, Kind: VFloat, FloatBits: 64, WS: WSCollapse})
	DurationType = register(&Builtin{Name: "duration", Base: AnySimpleType, Kind: VDuration, WS: WSCollapse})
	DateTimeType = register(&Builtin{Name: "dateTime", Base: AnySimpleType, Kind: VDateTime, Temporal: KindDateTime, WS: WSCollapse})
	TimeType     = register(&Builtin{Name: "time", Base: AnySimpleType, Kind: VDateTime, Temporal: KindTime, WS: WSCollapse})
	DateType     = register(&Builtin{Name: "date", Base: AnySimpleType, Kind: VDateTime, Temporal: KindDate, WS: WSCollapse})
	GYearMonth   = register(&Builtin{Name: "gYearMonth", Base: AnySimpleType, Kind: VDateTime, Temporal: KindGYearMonth, WS: WSCollapse})
	GYear        = register(&Builtin{Name: "gYear", Base: AnySimpleType, Kind: VDateTime, Temporal: KindGYear, WS: WSCollapse})
	GMonthDay    = register(&Builtin{Name: "gMonthDay", Base: AnySimpleType, Kind: VDateTime, Temporal: KindGMonthDay, WS: WSCollapse})
	GDay         = register(&Builtin{Name: "gDay", Base: AnySimpleType, Kind: VDateTime, Temporal: KindGDay, WS: WSCollapse})
	GMonth       = register(&Builtin{Name: "gMonth", Base: AnySimpleType, Kind: VDateTime, Temporal: KindGMonth, WS: WSCollapse})
	HexBinary    = register(&Builtin{Name: "hexBinary", Base: AnySimpleType, Kind: VHexBinary, WS: WSCollapse})
	Base64Binary = register(&Builtin{Name: "base64Binary", Base: AnySimpleType, Kind: VBase64Binary, WS: WSCollapse})
	AnyURI       = register(&Builtin{Name: "anyURI", Base: AnySimpleType, Kind: VAnyURI, WS: WSCollapse})
	QName        = register(&Builtin{Name: "QName", Base: AnySimpleType, Kind: VQName, WS: WSCollapse})
	NOTATION     = register(&Builtin{Name: "NOTATION", Base: AnySimpleType, Kind: VNotation, WS: WSCollapse})

	// String-derived.
	NormalizedString = register(&Builtin{Name: "normalizedString", Base: String, WS: WSReplace})
	Token            = register(&Builtin{Name: "token", Base: NormalizedString, WS: WSCollapse})
	Language         = register(&Builtin{Name: "language", Base: Token, WS: WSCollapse,
		Facets: Facets{Patterns: []*xsdregex.Regexp{languagePattern}}})
	NMTOKEN = register(&Builtin{Name: "NMTOKEN", Base: Token, WS: WSCollapse,
		Check: checkProduction("NMTOKEN", xmlparser.IsNmtoken)})
	NameType = register(&Builtin{Name: "Name", Base: Token, WS: WSCollapse,
		Check: checkProduction("Name", xmlparser.IsName)})
	NCName = register(&Builtin{Name: "NCName", Base: NameType, WS: WSCollapse,
		Check: checkProduction("NCName", xmlparser.IsNCName)})
	ID     = register(&Builtin{Name: "ID", Base: NCName, WS: WSCollapse, Check: checkProduction("ID", xmlparser.IsNCName)})
	IDREF  = register(&Builtin{Name: "IDREF", Base: NCName, WS: WSCollapse, Check: checkProduction("IDREF", xmlparser.IsNCName)})
	ENTITY = register(&Builtin{Name: "ENTITY", Base: NCName, WS: WSCollapse, Check: checkProduction("ENTITY", xmlparser.IsNCName)})

	// Built-in list types.
	NMTOKENS = register(&Builtin{Name: "NMTOKENS", Base: AnySimpleType, Kind: VList, WS: WSCollapse,
		List: true, ItemType: NMTOKEN, Facets: Facets{MinLength: intPtr(1)}})
	IDREFS = register(&Builtin{Name: "IDREFS", Base: AnySimpleType, Kind: VList, WS: WSCollapse,
		List: true, ItemType: IDREF, Facets: Facets{MinLength: intPtr(1)}})
	ENTITIES = register(&Builtin{Name: "ENTITIES", Base: AnySimpleType, Kind: VList, WS: WSCollapse,
		List: true, ItemType: ENTITY, Facets: Facets{MinLength: intPtr(1)}})

	// Decimal-derived integer tower.
	Integer = register(&Builtin{Name: "integer", Base: DecimalType, WS: WSCollapse,
		Check: checkIntegerLexical, Facets: Facets{FractionDigits: intPtr(0)}})
	NonPositiveInteger = register(&Builtin{Name: "nonPositiveInteger", Base: Integer, WS: WSCollapse,
		Facets: Facets{MaxInclusive: decVal("0")}})
	NegativeInteger = register(&Builtin{Name: "negativeInteger", Base: NonPositiveInteger, WS: WSCollapse,
		Facets: Facets{MaxInclusive: decVal("-1")}})
	Long = register(&Builtin{Name: "long", Base: Integer, WS: WSCollapse,
		Facets: Facets{MinInclusive: decVal("-9223372036854775808"), MaxInclusive: decVal("9223372036854775807")}})
	Int = register(&Builtin{Name: "int", Base: Long, WS: WSCollapse,
		Facets: Facets{MinInclusive: decVal("-2147483648"), MaxInclusive: decVal("2147483647")}})
	Short = register(&Builtin{Name: "short", Base: Int, WS: WSCollapse,
		Facets: Facets{MinInclusive: decVal("-32768"), MaxInclusive: decVal("32767")}})
	Byte = register(&Builtin{Name: "byte", Base: Short, WS: WSCollapse,
		Facets: Facets{MinInclusive: decVal("-128"), MaxInclusive: decVal("127")}})
	NonNegativeInteger = register(&Builtin{Name: "nonNegativeInteger", Base: Integer, WS: WSCollapse,
		Facets: Facets{MinInclusive: decVal("0")}})
	UnsignedLong = register(&Builtin{Name: "unsignedLong", Base: NonNegativeInteger, WS: WSCollapse,
		Facets: Facets{MaxInclusive: decVal("18446744073709551615")}})
	UnsignedInt = register(&Builtin{Name: "unsignedInt", Base: UnsignedLong, WS: WSCollapse,
		Facets: Facets{MaxInclusive: decVal("4294967295")}})
	UnsignedShort = register(&Builtin{Name: "unsignedShort", Base: UnsignedInt, WS: WSCollapse,
		Facets: Facets{MaxInclusive: decVal("65535")}})
	UnsignedByte = register(&Builtin{Name: "unsignedByte", Base: UnsignedShort, WS: WSCollapse,
		Facets: Facets{MaxInclusive: decVal("255")}})
	PositiveInteger = register(&Builtin{Name: "positiveInteger", Base: NonNegativeInteger, WS: WSCollapse,
		Facets: Facets{MinInclusive: decVal("1")}})
)

// hexDecode decodes a hexBinary lexical value.
func hexDecode(s string) ([]byte, error) {
	out := make([]byte, len(s)/2)
	for i := 0; i < len(s); i += 2 {
		hi, ok1 := hexVal(s[i])
		lo, ok2 := hexVal(s[i+1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("bad hexBinary %q", s)
		}
		out[i/2] = hi<<4 | lo
	}
	return out, nil
}

func hexVal(b byte) (byte, bool) {
	switch {
	case b >= '0' && b <= '9':
		return b - '0', true
	case b >= 'a' && b <= 'f':
		return b - 'a' + 10, true
	case b >= 'A' && b <= 'F':
		return b - 'A' + 10, true
	}
	return 0, false
}

// base64Decode decodes base64Binary (the XSD lexical space allows internal
// spaces, which collapse already removed between groups; we also strip any
// remaining spaces).
func base64Decode(s string) ([]byte, error) {
	s = strings.ReplaceAll(s, " ", "")
	return stdBase64(s)
}
