package xsdregex

import (
	"errors"
	"strings"
	"testing"
)

// TestDFAStateCapFallback: a pattern engineered to blow up determinization
// must return ErrTooComplex from ToDFA while NFA matching keeps working.
func TestDFAStateCapFallback(t *testing.T) {
	// (a|b)*a(a|b){N}: the minimal DFA needs 2^N states.
	pattern := `(a|b)*a(a|b){18}`
	re := MustCompile(pattern)
	if _, err := re.ToDFA(); err == nil {
		t.Skip("determinization fit in the cap on this build; raise N to exercise the fallback")
	}
	// NFA simulation still answers correctly.
	input := "a" + strings.Repeat("b", 18)
	if !re.MatchNFA(input) {
		t.Error("NFA should accept")
	}
	if re.MatchNFA(strings.Repeat("b", 19)) {
		t.Error("NFA should reject")
	}
	if !re.MatchString(input) {
		t.Error("MatchString should fall back to the NFA")
	}
}

// TestDFAWorkCapFallback: patterns whose construction work explodes with
// few states — a large class under a counted repeat, or optional repeats
// with quadratic followpos — return ErrTooComplex from ToDFA instead of
// stalling the first MatchString, which answers through the NFA.
func TestDFAWorkCapFallback(t *testing.T) {
	for _, c := range []struct{ pattern, yes, no string }{
		{`\p{L}{0,100}`, "héllo", "h3llo"},
		{`a.{0,4096}`, "abc", "bc"},
	} {
		re := MustCompile(c.pattern)
		if _, err := re.ToDFA(); !errors.Is(err, ErrTooComplex) {
			t.Errorf("%s: ToDFA err = %v, want ErrTooComplex", c.pattern, err)
		}
		if !re.MatchString(c.yes) || re.MatchString(c.no) {
			t.Errorf("%s: MatchString disagrees with the pattern", c.pattern)
		}
	}
}

func TestNegatedCategory(t *testing.T) {
	re := MustCompile(`\P{Nd}+`)
	if !re.MatchString("abc!") || re.MatchString("a1") {
		t.Error("\\P{Nd} semantics wrong")
	}
}

func TestClassWithEscapesAndRanges(t *testing.T) {
	re := MustCompile(`[\t a-c\-x]+`)
	for _, ok := range []string{"\t", " ", "abc", "-", "x", "a-x c"} {
		if !re.MatchString(ok) {
			t.Errorf("should match %q", ok)
		}
	}
	for _, bad := range []string{"d", "A", ""} {
		if re.MatchString(bad) {
			t.Errorf("should not match %q", bad)
		}
	}
}

func TestNestedSubtraction(t *testing.T) {
	// letters minus (vowels minus 'e'): consonants plus 'e'.
	re := MustCompile(`[a-z-[aeiou-[e]]]+`)
	if !re.MatchString("bcdef") {
		t.Error("e should be allowed back in")
	}
	if re.MatchString("ae") {
		t.Error("a should stay subtracted")
	}
}

func TestUnicodeInput(t *testing.T) {
	re := MustCompile(`\p{L}{2}`)
	if !re.MatchString("ΔΩ") {
		t.Error("Greek letters should match \\p{L}")
	}
	if re.MatchString("Δ") || re.MatchString("ΔΩΔ") {
		t.Error("anchoring with multibyte runes broken")
	}
}

func TestEmptyAlternative(t *testing.T) {
	re := MustCompile(`(a|)(b|)`)
	for _, ok := range []string{"", "a", "b", "ab"} {
		if !re.MatchString(ok) {
			t.Errorf("should match %q", ok)
		}
	}
	if re.MatchString("ba") {
		t.Error("order still matters")
	}
}

func TestQuantifierOnGroupWithAlternation(t *testing.T) {
	re := MustCompile(`(ab|cd){2,3}`)
	cases := map[string]bool{
		"abab": true, "abcd": true, "cdcdcd": true,
		"ab": false, "abababab": false, "abc": false,
	}
	for in, want := range cases {
		if got := re.MatchString(in); got != want {
			t.Errorf("%q: %v, want %v", in, got, want)
		}
	}
}

func TestZeroCount(t *testing.T) {
	re := MustCompile(`a{0}b`)
	if !re.MatchString("b") || re.MatchString("ab") {
		t.Error("a{0} should match nothing")
	}
}
