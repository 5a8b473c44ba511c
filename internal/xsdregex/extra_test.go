package xsdregex

import (
	"strings"
	"testing"
	"time"
)

// TestDFAStateCapFallback: a pattern whose minimal DFA needs 2^18 states
// stays fast, answered from configuration sets.
func TestDFAStateCapFallback(t *testing.T) {
	// (a|b)*a(a|b){N}: the minimal DFA needs 2^N states.
	pattern := `(a|b)*a(a|b){18}`
	begin := time.Now()
	re := MustCompile(pattern)
	input := "a" + strings.Repeat("b", 18)
	if !re.MatchString(input) {
		t.Error("should accept")
	}
	if re.MatchString(strings.Repeat("b", 19)) {
		t.Error("should reject")
	}
	assertFast(t, pattern, time.Since(begin))
}

// TestDFAWorkCapFallback: a large class under a counted repeat, and an
// optional repeat of 4,096, compile to one counter each and answer at
// once.
func TestDFAWorkCapFallback(t *testing.T) {
	for _, c := range []struct{ pattern, yes, no string }{
		{`\p{L}{0,100}`, "héllo", "h3llo"},
		{`a.{0,4096}`, "abc", "bc"},
	} {
		begin := time.Now()
		re := MustCompile(c.pattern)
		if !re.MatchString(c.yes) || re.MatchString(c.no) {
			t.Errorf("%s: MatchString disagrees with the pattern", c.pattern)
		}
		assertFast(t, c.pattern, time.Since(begin))
	}
}

// assertFast fails a compile-and-match that took longer than 50ms, outside
// the race detector.
func assertFast(t *testing.T, pattern string, d time.Duration) {
	t.Helper()
	if !raceEnabled && d > 50*time.Millisecond {
		t.Errorf("%s: compiling and matching took %v", pattern, d)
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

// raceEnabled reports a build with the race detector (race_test.go), where
// the timing bounds do not hold.
var raceEnabled bool
