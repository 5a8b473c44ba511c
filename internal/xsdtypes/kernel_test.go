package xsdtypes

import (
	"math/rand"
	"strings"
	"testing"
)

// refWhiteSpace is the straightforward whiteSpace implementation the
// allocation-free ApplyWhiteSpace must agree with: a rune loop for
// replace, FieldsFunc and Join for collapse.
func refWhiteSpace(ws WhiteSpace, s string) string {
	switch ws {
	case WSPreserve:
		return s
	case WSReplace:
		var sb strings.Builder
		for _, r := range s {
			if r == '\t' || r == '\n' || r == '\r' {
				sb.WriteByte(' ')
			} else {
				sb.WriteRune(r)
			}
		}
		return sb.String()
	default:
		fields := strings.FieldsFunc(s, func(r rune) bool {
			return r == ' ' || r == '\t' || r == '\n' || r == '\r'
		})
		return strings.Join(fields, " ")
	}
}

// TestApplyWhiteSpaceMatchesReference compares ApplyWhiteSpace with the
// reference on random strings built from whitespace runs, letters,
// non-ASCII runes and invalid UTF-8, and checks that already-normalized
// input comes back without allocating.
func TestApplyWhiteSpaceMatchesReference(t *testing.T) {
	pieces := []string{" ", "  ", "\t", "\n", "\r", "\r\n", "a", "bc", "\u00e9", "\u65e5\u672c", "\u00a0", "\u2028", "\xff", "\xe2\x82", "0"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		s := sb.String()
		for _, ws := range []WhiteSpace{WSPreserve, WSReplace, WSCollapse} {
			if got, want := ApplyWhiteSpace(ws, s), refWhiteSpace(ws, s); got != want {
				t.Fatalf("ApplyWhiteSpace(%d, %q) = %q, want %q", ws, s, got, want)
			}
		}
	}
	for _, s := range []string{"", "a", "a b", "\u00e9 b c", "12.5"} {
		for _, ws := range []WhiteSpace{WSReplace, WSCollapse} {
			if n := testing.AllocsPerRun(10, func() { ApplyWhiteSpace(ws, s) }); n != 0 {
				t.Errorf("ApplyWhiteSpace(%d, %q) allocates %v times on normalized input", ws, s, n)
			}
		}
	}
}

// TestFacetChainBlamesRootMost pins the order of the facet walk: when
// several steps of a derivation chain reject a value, the error names the
// step nearest the primitive.
func TestFacetChainBlamesRootMost(t *testing.T) {
	// -5 breaks nonNegativeInteger's minInclusive 0 and positiveInteger's
	// minInclusive 1; the first is nearer the root.
	_, err := MustLookup("positiveInteger").Parse("-5")
	if err == nil || err.Error() != `positiveInteger: value "-5" must be >= 0` {
		t.Errorf("positiveInteger(-5): %v", err)
	}
	if _, err := MustLookup("positiveInteger").Parse("7"); err != nil {
		t.Errorf("positiveInteger(7): %v", err)
	}
}
