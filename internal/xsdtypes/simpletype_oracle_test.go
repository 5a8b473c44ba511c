package xsdtypes_test

// The one walk of xsd.SimpleType.Parse against the nested recursions it
// replaced. recursiveParse below is the walk as it was: SimpleType.Parse
// normalized, then parsed through its base's Parse (which normalized and
// checked the base chain again), then checked its own chain; at the
// bottom, Builtin.Parse recursed up the built-in chain (RecursiveParse,
// export_test.go). The new walk must give the same verdict, the same
// value and byte-identical error text.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/schemas"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

func recursiveParse(s *xsd.SimpleType, lexical string) (xsdtypes.Value, error) {
	norm := xsdtypes.ApplyWhiteSpace(recursiveWhiteSpace(s), lexical)
	v, err := recursiveParseNormalized(s, norm)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	if err := recursiveCheckSteps(s, &v, norm); err != nil {
		return xsdtypes.Value{}, fmt.Errorf("%s: %w", displayName(s), err)
	}
	return v, nil
}

func recursiveWhiteSpace(s *xsd.SimpleType) xsdtypes.WhiteSpace {
	for t := s; t != nil; t = t.Base {
		if t.Facets.WhiteSpace != nil {
			return *t.Facets.WhiteSpace
		}
		if t.Builtin != nil {
			return t.Builtin.WS
		}
	}
	return xsdtypes.WSCollapse
}

func recursiveCheckSteps(s *xsd.SimpleType, v *xsdtypes.Value, norm string) error {
	if s == nil || s.Builtin != nil {
		return nil
	}
	if err := recursiveCheckSteps(s.Base, v, norm); err != nil {
		return err
	}
	if !s.Facets.IsEmpty() {
		return s.Facets.Check(*v, norm)
	}
	return nil
}

func recursiveParseNormalized(s *xsd.SimpleType, norm string) (xsdtypes.Value, error) {
	switch s.Variety {
	case xsd.VarietyList:
		var items []xsdtypes.Value
		if norm != "" {
			for _, part := range strings.Fields(norm) {
				iv, err := recursiveParse(s.ItemType, part)
				if err != nil {
					return xsdtypes.Value{}, fmt.Errorf("list item %q: %w", part, err)
				}
				items = append(items, iv)
			}
		}
		return xsdtypes.ListValue(items), nil
	case xsd.VarietyUnion:
		var firstErr error
		for _, m := range s.MemberTypes {
			v, err := recursiveParse(m, norm)
			if err == nil {
				return v, nil
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		return xsdtypes.Value{}, fmt.Errorf("%s: no union member accepts %q: %w", displayName(s), norm, firstErr)
	default:
		if s.Builtin != nil {
			return s.Builtin.RecursiveParse(norm)
		}
		if s.Base != nil {
			return recursiveParse(s.Base, norm)
		}
		return xsdtypes.Value{Kind: xsdtypes.VString, Str: norm}, nil
	}
}

func displayName(s *xsd.SimpleType) string {
	if !s.Name.IsZero() {
		return s.Name.Local
	}
	if s.Context != "" {
		return "anonymous type (" + s.Context + ")"
	}
	return "anonymous simple type"
}

// varietiesXSD adds what the bundled schemas lack: lists, unions and
// their restrictions, whiteSpace facets, and atomic chains over string,
// numeric, temporal and built-in list types.
const varietiesXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Code">
    <xsd:restriction base="xsd:token"><xsd:pattern value="[A-Z]{2}\d*"/><xsd:maxLength value="6"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="ShortCode">
    <xsd:restriction base="Code"><xsd:maxLength value="4"/><xsd:enumeration value="AB1"/><xsd:enumeration value="CD"/><xsd:enumeration value="EF123"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Trimmed">
    <xsd:restriction base="xsd:normalizedString"><xsd:whiteSpace value="collapse"/><xsd:minLength value="1"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Spaced">
    <xsd:restriction base="xsd:string"><xsd:whiteSpace value="replace"/><xsd:pattern value="[^ ]+( [^ ]+)*"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Percent">
    <xsd:restriction base="xsd:decimal"><xsd:totalDigits value="5"/><xsd:fractionDigits value="2"/><xsd:minInclusive value="0"/><xsd:maxInclusive value="100"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Grade">
    <xsd:restriction base="Percent"><xsd:minExclusive value="50"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Small">
    <xsd:restriction base="xsd:byte"><xsd:maxExclusive value="10"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Smaller">
    <xsd:restriction base="Small"><xsd:maxInclusive value="5"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Recent">
    <xsd:restriction base="xsd:date"><xsd:minInclusive value="2000-01-01"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Ratio">
    <xsd:restriction base="xsd:double"><xsd:minInclusive value="-1"/><xsd:maxInclusive value="1"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Tokens">
    <xsd:restriction base="xsd:NMTOKENS"><xsd:maxLength value="3"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Bytes">
    <xsd:restriction base="xsd:hexBinary"><xsd:length value="2"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Codes"><xsd:list itemType="Code"/></xsd:simpleType>
  <xsd:simpleType name="FewCodes">
    <xsd:restriction base="Codes"><xsd:minLength value="1"/><xsd:maxLength value="3"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="TwoCodes">
    <xsd:restriction base="FewCodes"><xsd:length value="2"/><xsd:pattern value="AB.*"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Grades">
    <xsd:list><xsd:simpleType><xsd:restriction base="Grade"><xsd:fractionDigits value="1"/></xsd:restriction></xsd:simpleType></xsd:list>
  </xsd:simpleType>
  <xsd:simpleType name="SizeOrCode"><xsd:union memberTypes="Smaller Code xsd:boolean"/></xsd:simpleType>
  <xsd:simpleType name="SomeSizes">
    <xsd:restriction base="SizeOrCode"><xsd:enumeration value="3"/><xsd:enumeration value="AB12"/><xsd:enumeration value="true"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="DateOrList">
    <xsd:union memberTypes="Recent">
      <xsd:simpleType><xsd:list itemType="xsd:int"/></xsd:simpleType>
      <xsd:simpleType><xsd:restriction base="Trimmed"><xsd:maxLength value="3"/></xsd:restriction></xsd:simpleType>
    </xsd:union>
  </xsd:simpleType>
  <xsd:complexType name="Money">
    <xsd:simpleContent>
      <xsd:extension base="Percent"><xsd:attribute name="unit" type="Code"/></xsd:extension>
    </xsd:simpleContent>
  </xsd:complexType>
  <xsd:complexType name="Cents">
    <xsd:simpleContent>
      <xsd:restriction base="Money"><xsd:fractionDigits value="0"/><xsd:maxExclusive value="99"/></xsd:restriction>
    </xsd:simpleContent>
  </xsd:complexType>
</xsd:schema>`

// oracleTypes lists, in a fixed order, every built-in and every simple
// type the bundled schemas (the checked-in testdata schemas and the
// embedded ones) and varietiesXSD define, down to list items, union
// members and simpleContent types.
func oracleTypes(t testing.TB) []*xsd.SimpleType {
	srcs := []string{schemas.PurchaseOrderXSD, schemas.EvolvedPurchaseOrderXSD, schemas.AddressDerivationXSD,
		schemas.NamespacedOrderXSD, schemas.ComplexGroupsXSD, schemas.WildcardEnvelopeXSD, schemas.NamedGroupXSD, varietiesXSD}
	files, _ := filepath.Glob("../../testdata/schemas/*.xsd")
	if len(files) == 0 {
		t.Fatal("no testdata schemas")
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	var out []*xsd.SimpleType
	seen := map[*xsd.SimpleType]bool{}
	var add func(st *xsd.SimpleType)
	add = func(st *xsd.SimpleType) {
		if st == nil || seen[st] {
			return
		}
		seen[st] = true
		out = append(out, st)
		add(st.Base)
		add(st.ItemType)
		for _, m := range st.MemberTypes {
			add(m)
		}
	}
	addType := func(typ xsd.Type) {
		switch x := typ.(type) {
		case *xsd.SimpleType:
			add(x)
		case *xsd.ComplexType:
			add(x.SimpleContentType)
			for _, u := range x.AttributeUses {
				add(u.Decl.Type)
			}
		}
	}
	for i, src := range srcs {
		s, err := xsd.ParseString(src, nil)
		if err != nil {
			t.Fatalf("schema %d: %v", i, err)
		}
		if i == 0 {
			names := xsdtypes.Names()
			slices.Sort(names)
			for _, name := range names {
				add(s.SimpleTypeOf(name))
			}
		}
		var names []xsd.QName
		for q := range s.Types {
			names = append(names, q)
		}
		slices.SortFunc(names, func(a, b xsd.QName) int { return strings.Compare(a.String(), b.String()) })
		for _, q := range names {
			addType(s.Types[q])
		}
		for _, typ := range s.AnonymousTypes() {
			addType(typ)
		}
	}
	return out
}

// verdictValues returns the quoted strings of the pinned validator
// verdicts (the values the corpora's documents carried, and names that
// make useful near misses) and values that reach the varieties above.
func verdictValues(t testing.TB) []string {
	src, err := os.ReadFile("../../testdata/validator_verdicts.txt")
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, s := range []string{"", " 7 ", "\t1  2\n3 ", "-1", "+5", "3.14", "100.00", "50", "99.999", "1E3", "NaN", "INF",
		"2001-01-01", "1999-12-31Z", "P1Y2M", "true", "0", "0A1F", "AB1", "AB1 CD", " AB12\tCD ", "AB12 AB3 CD EF",
		"50.5 99.9", "a\tb", "x y  z", "\u00e9t\u00e9 "} {
		set[s] = true
	}
	for _, q := range regexp.MustCompile(`"(?:[^"\\]|\\.)*"`).FindAllString(string(src), -1) {
		if s, err := strconv.Unquote(q); err == nil {
			set[s] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// matchOracle fails t unless st.Parse and recursiveParse agree on lexical.
func matchOracle(t *testing.T, st *xsd.SimpleType, lexical string) {
	want, wantErr := recursiveParse(st, lexical)
	got, gotErr := st.Parse(lexical)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("%s.Parse(%q): error %v, the recursive walk's %v", displayName(st), lexical, gotErr, wantErr)
	case wantErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s.Parse(%q): error\n  %s\nthe recursive walk's\n  %s", displayName(st), lexical, gotErr, wantErr)
	case wantErr == nil && (got.Kind != want.Kind || got.String() != want.String() || !got.Equal(want)):
		t.Fatalf("%s.Parse(%q) = %v %q, the recursive walk's %v %q", displayName(st), lexical, got.Kind, got, want.Kind, want)
	}
}

// TestSimpleTypeParseMatchesOracle runs every verdict value through every
// oracle type.
func TestSimpleTypeParseMatchesOracle(t *testing.T) {
	types, values := oracleTypes(t), verdictValues(t)
	t.Logf("%d types, %d values", len(types), len(values))
	for _, st := range types {
		for _, lex := range values {
			matchOracle(t, st, lex)
		}
	}
}

// FuzzSimpleTypeParse draws an oracle type and a lexical value. Values
// that are not UTF-8 are skipped: text reaching Parse comes from the XML
// tokenizer, which replaces invalid bytes, and on such bytes the old walk
// was not consistent with itself (xs:token kept them, while a collapse
// restriction of xs:normalizedString had them replaced by its base's
// second normalization).
func FuzzSimpleTypeParse(f *testing.F) {
	types, values := oracleTypes(f), verdictValues(f)
	for i, lex := range values {
		f.Add(uint(i), lex)
	}
	f.Fuzz(func(t *testing.T, i uint, lexical string) {
		if !utf8.ValidString(lexical) {
			t.Skip()
		}
		matchOracle(t, types[i%uint(len(types))], lexical)
	})
}

// chainSchema is a chain of depth xs:int restrictions, L1 to L<depth>,
// each adding a maxInclusive one below its base's.
func chainSchema(depth int) string {
	var b strings.Builder
	b.WriteString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">` + "\n")
	base := "xsd:int"
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "<xsd:simpleType name=\"L%d\"><xsd:restriction base=\"%s\"><xsd:maxInclusive value=\"%d\"/></xsd:restriction></xsd:simpleType>\n",
			i, base, 1_000_000-i)
		base = fmt.Sprintf("L%d", i)
	}
	b.WriteString("</xsd:schema>")
	return b.String()
}

// TestRestrictionChainLinear: parsing a value costs time linear in the
// depth of its type's restriction chain, so loading a chain, which
// parses each step's bound in its base, costs quadratic time. The
// bounds are on CPU time.
func TestRestrictionChainLinear(t *testing.T) {
	load := func(depth int) *xsd.SimpleType {
		s, err := xsd.ParseString(chainSchema(depth), nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.Types[xsd.QName{Local: fmt.Sprintf("L%d", depth)}].(*xsd.SimpleType)
	}
	begin := xsdtypes.ProcessCPU()
	deep := load(2000)
	if d := xsdtypes.ProcessCPU() - begin; !xsdtypes.RaceEnabled() && d > 2*time.Second {
		t.Errorf("loading a 2,000-level chain took %v of CPU", d)
	}
	shallow := load(500)

	// A failing base step is blamed on its own name.
	if _, err := shallow.Parse("999999"); err == nil || err.Error() != `L2: value "999999" must be <= 999998` {
		t.Errorf("L500.Parse(999999): %v", err)
	}

	if xsdtypes.RaceEnabled() {
		return // the timing bounds do not hold under the race detector
	}

	// perParse is the least CPU time of five rounds of n parses.
	perParse := func(st *xsd.SimpleType, n int) time.Duration {
		best := time.Duration(-1)
		for round := 0; round < 5; round++ {
			begin := xsdtypes.ProcessCPU()
			for i := 0; i < n; i++ {
				if _, err := st.Parse("7"); err != nil {
					t.Fatal(err)
				}
			}
			if d := xsdtypes.ProcessCPU() - begin; best < 0 || d < best {
				best = d
			}
		}
		return best / time.Duration(n)
	}
	at500, at2000 := perParse(shallow, 2000), perParse(deep, 500)
	ratio := float64(at2000) / float64(at500)
	t.Logf("a parse costs %v at 2,000 levels, %v at 500: %.1fx", at2000, at500, ratio)
	if ratio > 8 {
		t.Errorf("a parse costs %v at 2,000 levels, %v at 500: %.1fx (linear is 4x)", at2000, at500, ratio)
	}
}
