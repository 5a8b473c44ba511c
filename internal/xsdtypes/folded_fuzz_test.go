package xsdtypes_test

// The folded plans of xsd.SimpleType.Parse against the recursive walk, on
// random restriction chains: every step's bounds, lengths, digits and
// enumerations fold into one check per kind, and the fold must decide
// exactly what checking every step does.

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/xsd"
)

var (
	// foldIntegers has the edges of int64 and uint64, equal values
	// written differently, and near misses of the integer lexical space.
	foldIntegers = []string{"0", "-0", "+0", "1", "+1", "01", "-1", "5", "+5", "005", "-5", "99", "100", "101", "-100",
		"2147483647", "2147483648", "-2147483648", "-2147483649", "999999999999999999", "1000000000000000000",
		"-999999999999999999", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "18446744073709551615", "18446744073709551616", "1.0", "1.5", "-", "+", "1e3"}
	foldDecimals = append([]string{"1.00", "-1.0", ".5", "0.5", "-0.50", "3.14159", "100.001", "99.99", "0.000000000000000001",
		"12345678901234567.8", "123456789012345678.9", "-12345678901234567.89"}, foldIntegers...)
	// foldDates has equal instants with and without a timezone.
	foldDates = []string{"2001-01-01", "2001-01-01Z", "2001-01-01+00:00", "2001-01-01+14:00", "2001-01-01-14:00",
		"2000-12-31", "2000-12-31Z", "2001-01-02", "2001-01-02+01:00", "1999-12-31Z", "2002-06-15-05:00", "2001-13-01", "x"}
	foldStrings = []string{"", "a", "ab", "abc", "abcd", "abcde", "b", "ba", "x y", "été", "A", "1", "10", "9"}
)

var foldBases = []struct {
	name string
	pool []string
}{
	{"integer", foldIntegers}, {"int", foldIntegers}, {"long", foldIntegers}, {"unsignedLong", foldIntegers},
	{"decimal", foldDecimals}, {"date", foldDates}, {"string", foldStrings},
}

// foldedChain loads a chain of 1-6 restrictions, F1 to Fn, of a built-in
// drawn by r, each with facets drawn by r from the built-in's pool, and
// returns the chain's types and the pool. Steps may loosen their base's
// length and digit facets. A step whose facets do not load (a bound
// outside its base, contradictory facets) is drawn again, up to four
// times, and then left without facets.
func foldedChain(t *testing.T, r *rand.Rand) ([]*xsd.SimpleType, []string) {
	base := foldBases[r.IntN(len(foldBases))]
	pick := func() string { return base.pool[r.IntN(len(base.pool))] }
	step := func() string {
		var b strings.Builder
		facet := func(name, value string) {
			fmt.Fprintf(&b, `<xsd:%s value="%s"/>`, name, value)
		}
		if r.IntN(3) == 0 {
			facet([]string{"minInclusive", "minExclusive"}[r.IntN(2)], pick())
		}
		if r.IntN(3) == 0 {
			facet([]string{"maxInclusive", "maxExclusive"}[r.IntN(2)], pick())
		}
		switch r.IntN(5) {
		case 0:
			facet("length", fmt.Sprint(r.IntN(5)))
		case 1:
			facet("minLength", fmt.Sprint(r.IntN(5)))
		case 2:
			facet("maxLength", fmt.Sprint(r.IntN(5)))
		}
		if r.IntN(4) == 0 {
			td := 1 + r.IntN(20)
			facet("totalDigits", fmt.Sprint(td))
			if r.IntN(2) == 0 {
				facet("fractionDigits", fmt.Sprint(r.IntN(min(td, 4)+1)))
			}
		} else if r.IntN(4) == 0 {
			facet("fractionDigits", fmt.Sprint(r.IntN(4)))
		}
		if r.IntN(3) == 0 {
			for n := 1 + r.IntN(4); n > 0; n-- {
				facet("enumeration", pick())
			}
		}
		if base.name == "string" && r.IntN(4) == 0 {
			facet("pattern", []string{"a.*", "[a-c]*", "[^ ]+", "\\d+"}[r.IntN(4)])
		}
		return b.String()
	}
	var steps []string
	load := func(facets string) *xsd.Schema {
		var b strings.Builder
		b.WriteString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">` + "\n")
		for i, f := range append(steps, facets) {
			prev := "xsd:" + base.name
			if i > 0 {
				prev = fmt.Sprintf("F%d", i)
			}
			fmt.Fprintf(&b, "<xsd:simpleType name=\"F%d\"><xsd:restriction base=\"%s\">%s</xsd:restriction></xsd:simpleType>\n", i+1, prev, f)
		}
		b.WriteString("</xsd:schema>")
		s, _ := xsd.ParseString(b.String(), nil)
		return s
	}
	var s *xsd.Schema
	for depth := 1 + r.IntN(6); len(steps) < depth; {
		facets := ""
		for try := 0; try < 4; try++ {
			if f := step(); load(f) != nil {
				facets = f
				break
			}
		}
		if s = load(facets); s == nil {
			t.Fatalf("a chain of %d steps and an empty one does not load", len(steps))
		}
		steps = append(steps, facets)
	}
	types := make([]*xsd.SimpleType, len(steps))
	for i := range types {
		types[i] = s.Types[xsd.QName{Local: fmt.Sprintf("F%d", i+1)}].(*xsd.SimpleType)
	}
	return types, base.pool
}

// FuzzFoldedChain draws a chain from seed and checks each of its types on
// its built-in's pool and on lexical.
func FuzzFoldedChain(f *testing.F) {
	for seed := range uint64(64) {
		f.Add(seed, "")
	}
	f.Add(uint64(7), "  42 ")
	f.Fuzz(func(t *testing.T, seed uint64, lexical string) {
		if !utf8.ValidString(lexical) {
			t.Skip()
		}
		types, pool := foldedChain(t, rand.New(rand.NewPCG(seed, seed>>32)))
		for _, st := range types {
			for _, lex := range pool {
				matchOracle(t, st, lex)
			}
			matchOracle(t, st, lexical)
		}
	})
}
