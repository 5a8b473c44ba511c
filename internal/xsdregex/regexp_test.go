package xsdregex

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// matchCase is a pattern/input/expected triple.
type matchCase struct {
	pattern string
	input   string
	want    bool
}

var matchCases = []matchCase{
	// The paper's SKU pattern (Fig. 3, line 59).
	{`\d{3}-[A-Z]{2}`, "926-AA", true},
	{`\d{3}-[A-Z]{2}`, "926-aa", false},
	{`\d{3}-[A-Z]{2}`, "92-AA", false},
	{`\d{3}-[A-Z]{2}`, "9261-AA", false},
	{`\d{3}-[A-Z]{2}`, "926-AAX", false}, // anchored
	{`\d{3}-[A-Z]{2}`, "", false},

	// Literals and implicit anchoring.
	{`abc`, "abc", true},
	{`abc`, "xabc", false},
	{`abc`, "abcx", false},
	{``, "", true},
	{``, "x", false},

	// Quantifiers.
	{`a?`, "", true},
	{`a?`, "a", true},
	{`a?`, "aa", false},
	{`a*`, "", true},
	{`a*`, "aaaa", true},
	{`a+`, "", false},
	{`a+`, "aaa", true},
	{`a{2,4}`, "a", false},
	{`a{2,4}`, "aa", true},
	{`a{2,4}`, "aaaa", true},
	{`a{2,4}`, "aaaaa", false},
	{`a{3}`, "aaa", true},
	{`a{3}`, "aa", false},
	{`a{2,}`, "aa", true},
	{`a{2,}`, "aaaaaa", true},
	{`a{2,}`, "a", false},
	{`a{0,2}`, "", true},
	{`(ab){2}`, "abab", true},
	{`(ab){2}`, "aba", false},

	// Alternation and grouping.
	{`cat|dog`, "cat", true},
	{`cat|dog`, "dog", true},
	{`cat|dog`, "cow", false},
	{`(a|b)*c`, "ababc", true},
	{`(a|b)*c`, "c", true},
	{`(a|b)*c`, "abd", false},
	{`a(b|)c`, "abc", true},
	{`a(b|)c`, "ac", true},

	// Character classes.
	{`[abc]+`, "cab", true},
	{`[abc]+`, "cad", false},
	{`[a-z]+`, "hello", true},
	{`[a-z]+`, "Hello", false},
	{`[^a-z]+`, "ABC1", true},
	{`[^a-z]+`, "aBC", false},
	{`[-+]?[0-9]+`, "-42", true},
	{`[-+]?[0-9]+`, "+7", true},
	{`[-+]?[0-9]+`, "13", true},
	{`[-+]?[0-9]+`, "i13", false},
	{`[a\-c]`, "-", true},
	{`[\]]`, "]", true},

	// Class subtraction (XSD-specific).
	{`[a-z-[aeiou]]+`, "bcdfg", true},
	{`[a-z-[aeiou]]+`, "bcae", false},
	{`[\w-[\d]]+`, "abc", true},
	{`[\w-[\d]]+`, "ab1", false},

	// Multi-char escapes.
	{`\s*`, " \t\n\r", true},
	{`\S+`, "abc", true},
	{`\S+`, "a b", false},
	{`\w+`, "hello_?", false},
	{`\d+`, "0123456789", true},
	{`\d+`, "12a", false},
	{`\D+`, "abc", true},
	{`\i\c*`, "po:name", true},
	{`\i\c*`, "1bad", false},

	// Single-char escapes.
	{`a\.b`, "a.b", true},
	{`a\.b`, "axb", false},
	{`a.b`, "axb", true},
	{`a.b`, "a\nb", false}, // '.' excludes newline
	{`\(\)`, "()", true},
	{`\\`, `\`, true},
	{`\n`, "\n", true},
	{`\t`, "\t", true},

	// Category escapes.
	{`\p{Lu}+`, "ABC", true},
	{`\p{Lu}+`, "AbC", false},
	{`\p{L}+`, "héllo", true},
	{`\P{L}+`, "123!", true},
	{`\p{Nd}{2}`, "42", true},
	{`\p{IsBasicLatin}+`, "plain", true},
	{`\p{IsBasicLatin}+`, "héllo", false},
	{`\p{IsGreek}+`, "αβγ", true},

	// Realistic XSD patterns.
	{`[0-9]{4}-[0-9]{2}-[0-9]{2}`, "1999-05-21", true},
	{`[A-Z]{2}[0-9]{2}[A-Z0-9]{1,30}`, "DE89370400440532013000", true},
	{`([a-zA-Z0-9._%+-])+@([a-zA-Z0-9.-])+`, "a.b@example.com", true},
	{`(\+|-)?([0-9]+(\.[0-9]*)?|\.[0-9]+)`, "-3.14", true},
	{`(\+|-)?([0-9]+(\.[0-9]*)?|\.[0-9]+)`, "3.", true},
	{`(\+|-)?([0-9]+(\.[0-9]*)?|\.[0-9]+)`, ".", false},
	{`[^:]*`, "no-colon-here", true},
	{`[^:]*`, "with:colon", false},
}

// TestMatchNFA runs the table on the configuration-set stepping a match
// falls back to past the DFA budget.
func TestMatchNFA(t *testing.T) {
	for _, c := range matchCases {
		re, err := Compile(c.pattern)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.pattern, err)
			continue
		}
		got, err := re.m.MatchNFA(c.input)
		if err != nil {
			t.Errorf("NFA %q.Match(%q): %v", c.pattern, c.input, err)
			continue
		}
		if got != c.want {
			t.Errorf("NFA %q.Match(%q) = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

func TestMatchDFA(t *testing.T) {
	for _, c := range matchCases {
		re, err := Compile(c.pattern)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.pattern, err)
			continue
		}
		if got := re.MatchString(c.input); got != c.want {
			t.Errorf("%q.Match(%q) = %v, want %v", c.pattern, c.input, got, c.want)
		}
	}
}

// TestBoundsPast4096: bounds are counters, so they hold at any size.
func TestBoundsPast4096(t *testing.T) {
	for _, c := range []struct {
		pattern string
		n       int
		want    bool
	}{
		{`a{5000}`, 4096, false},
		{`a{5000}`, 5000, true},
		{`a{4097,}`, 4096, false},
		{`a{0,5000}`, 4097, true},
		{`a{0,5000}`, 5000, true},
		{`a{0,5000}`, 5001, false},
	} {
		re := MustCompile(c.pattern)
		if got := re.MatchString(strings.Repeat("a", c.n)); got != c.want {
			t.Errorf("%s over %d a's: %v, want %v", c.pattern, c.n, got, c.want)
		}
	}
}

// TestBoundTiming: the first match of a{0,5000} over 5,000 a's grows the
// shared DFA up to its budget; a warm match walks it and steps the rest.
func TestBoundTiming(t *testing.T) {
	re := MustCompile(`a{0,5000}`)
	in := strings.Repeat("a", 5000)
	begin := time.Now()
	if !re.MatchString(in) {
		t.Fatal("cold match rejected")
	}
	cold := time.Since(begin)
	warm := time.Hour
	for i := 0; i < 5; i++ {
		begin = time.Now()
		if !re.MatchString(in) {
			t.Fatal("warm match rejected")
		}
		warm = min(warm, time.Since(begin))
	}
	t.Logf("cold %v, warm %v, %d DFA states", cold, warm, re.DFAStates())
	if raceEnabled {
		return
	}
	if cold > 20*time.Millisecond || warm > time.Millisecond {
		t.Errorf("cold match took %v (want < 20ms), warm %v (want < 1ms)", cold, warm)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`a{2`, `a{`, `a{x}`, `a{3,1}`, `(`, `(a`, `a)`, `[`, `[]`, `[a`,
		`\q`, `\p{Nope}`, `\p`, `a**`, `*a`, `+`, `?x`, `a\`,
	}
	for _, p := range bad {
		if _, err := Compile(p); err == nil {
			t.Errorf("Compile(%q): expected error", p)
		}
	}
}

func TestCharSetOps(t *testing.T) {
	a := NewCharSet(RuneRange{'a', 'f'}, RuneRange{'x', 'z'})
	b := NewCharSet(RuneRange{'d', 'y'})
	if got := a.Intersect(b); got.Count() != 5 { // d,e,f,x,y
		t.Errorf("intersect count: %d (%v)", got.Count(), got.Ranges)
	}
	if got := a.Union(b); got.Count() != int64('z'-'a')+1 {
		t.Errorf("union count: %d", got.Count())
	}
	if got := a.Subtract(b); got.Count() != 4 { // a,b,c,z
		t.Errorf("subtract count: %d (%v)", got.Count(), got.Ranges)
	}
	neg := a.Negate()
	if neg.Contains('b') || !neg.Contains('g') || !neg.Contains(0) || !neg.Contains(maxRune) {
		t.Errorf("negate wrong")
	}
	if !a.Negate().Negate().Contains('a') {
		t.Errorf("double negation lost members")
	}
}

func TestCharSetNormalization(t *testing.T) {
	s := NewCharSet(RuneRange{'c', 'e'}, RuneRange{'a', 'b'}, RuneRange{'f', 'h'})
	if len(s.Ranges) != 1 || s.Ranges[0] != (RuneRange{'a', 'h'}) {
		t.Errorf("adjacent ranges not merged: %v", s.Ranges)
	}
}

// TestNFADFAAgree is a property test: on random inputs over a small ASCII
// alphabet, the matcher agrees with Go's regexp for every pattern (each in
// the syntax both dialects share, anchored as ^(?:p)$).
func TestNFADFAAgree(t *testing.T) {
	patterns := []string{
		`\d{3}-[A-Z]{2}`, `(a|b)*abb`, `[a-c]{2,5}x?`, `a+b*c{1,3}`,
		`(ab|ba)+`, `\w+-\w+`,
	}
	for _, p := range patterns {
		re := MustCompile(p)
		oracle := regexp.MustCompile(`^(?:` + p + `)$`)
		f := func(bs []byte) bool {
			// Map bytes to a small alphabet so matches are likely.
			rs := make([]rune, len(bs))
			for i, b := range bs {
				rs[i] = rune("abcx-012ABZ"[int(b)%11])
			}
			s := string(rs)
			return re.MatchString(s) == oracle.MatchString(s)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("matcher and Go regexp disagree for %q: %v", p, err)
		}
	}
}

// TestDFAStateCount: the lazy DFA of the dragon-book example has the 4
// states of its followpos construction once an input has taken every
// transition.
func TestDFAStateCount(t *testing.T) {
	re := MustCompile(`(a|b)*abb`)
	if re.MatchString("baababbabbb") {
		t.Fatal("(a|b)*abb accepts baababbabbb")
	}
	if n := re.DFAStates(); n != 4 {
		t.Errorf("(a|b)*abb DFA states: got %d, want 4", n)
	}
}

func TestLargeBoundedRepeat(t *testing.T) {
	re := MustCompile(`a{1,100}`)
	if !re.MatchString(stringRepeat("a", 100)) || re.MatchString(stringRepeat("a", 101)) {
		t.Errorf("bounded repeat boundary wrong")
	}
}

func stringRepeat(s string, n int) string {
	out := make([]byte, 0, len(s)*n)
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return string(out)
}
