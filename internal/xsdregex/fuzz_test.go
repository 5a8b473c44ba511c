package xsdregex

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// FuzzDFA checks the matcher against Go's regexp, compiled as ^(?:p)$
// from the pattern's AST, with bounds past the 1,000 Go admits unrolled
// (goSyntax). Each run checks two patterns: one generated from
// the fuzz bytes in the syntax both dialects share, on an input of runs
// around its bounds (genCursor), and the fuzzed pattern itself, on the
// fuzzed input and on that input mapped onto a small ASCII alphabet drawn
// from the pattern's ranges so that matches are likely. No pattern,
// however garbled, may panic.
func FuzzDFA(f *testing.F) {
	seeds := [][2]string{
		{`\d{3}-[A-Z]{2}`, `123-AB`},
		{`\d{3}-[A-Z]{2}`, `12-AB`},
		{`(a|b)*c?`, `ababc`},
		{`[\i-[:]][\c-[:]]*`, `name`},
		{`\p{L}+`, `héllo`},
		{`[^abc]+`, `xyz`},
		{`a{2,4}`, `aaa`},
		{`.*`, ``},
		{`((`, `x`},
		{`[z-a]`, `q`},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, pattern, input string) {
		c := &genCursor{data: []byte(pattern + input)}
		gp := c.expr(0)
		checkOracle(t, gp, c.input())
		if _, err := Compile(pattern); err != nil {
			return // rejected patterns just must not panic
		}
		ast, _ := parsePattern(pattern)
		checkOracle(t, pattern, input, mapInput(ast, input))
	})
}

// checkOracle matches each input against the pattern and its oracle and
// returns how many inputs the oracle decided.
func checkOracle(t *testing.T, pattern string, inputs ...string) (checked int) {
	t.Helper()
	re := MustCompile(pattern)
	ast, _ := parsePattern(pattern)
	oracle := newOracle(ast)
	for _, in := range inputs {
		got, err := re.Match(in)
		if err != nil {
			continue // past the configuration cap: no verdict
		}
		want, ok := oracle(in)
		if ok && got != want {
			t.Fatalf("%q on %.100q (%d bytes): %v, oracle %v", pattern, in, len(in), got, want)
		}
		if ok {
			checked++
		}
	}
	return checked
}

// genCursor decodes fuzz bytes into a pattern of the syntax both dialects
// share — ASCII literals and classes, groups, alternation, quantifiers,
// bounds up to 1,000 — and an input of runs of a, b and c whose lengths
// sit at and around those bounds.
type genCursor struct {
	data []byte
	off  int
}

// genCounts are the bounds and run lengths the generator draws.
var genCounts = []int{0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 99, 100, 101, 999, 1000}

func (c *genCursor) next() int {
	if c.off >= len(c.data) {
		return 0
	}
	c.off++
	return int(c.data[c.off-1])
}

func (c *genCursor) expr(depth int) string {
	k := c.next() % 8
	if depth >= 4 {
		k %= 2
	}
	switch k {
	case 0:
		return string("abc"[c.next()%3])
	case 1:
		return []string{`[ab]`, `[^a]`, `[a-c]`, `[b-c]`}[c.next()%4]
	case 2:
		return c.expr(depth+1) + c.expr(depth+1)
	case 3:
		return "(" + c.expr(depth+1) + "|" + c.expr(depth+1) + ")"
	case 4:
		return "(" + c.expr(depth+1) + ")" + []string{"?", "*", "+"}[c.next()%3]
	default:
		lo, hi := genCounts[c.next()%len(genCounts)], genCounts[c.next()%len(genCounts)]
		switch {
		case k == 5:
			return fmt.Sprintf("(%s){%d}", c.expr(depth+1), lo)
		case k == 6:
			return fmt.Sprintf("(%s){%d,}", c.expr(depth+1), lo)
		}
		return fmt.Sprintf("(%s){%d,%d}", c.expr(depth+1), min(lo, hi), max(lo, hi))
	}
}

func (c *genCursor) input() string {
	var b strings.Builder
	for i := c.next() % 4; i >= 0; i-- {
		n := genCounts[c.next()%len(genCounts)] + c.next()%3 - 1
		b.WriteString(strings.Repeat(string("abc"[c.next()%3]), max(n, 0)))
	}
	return b.String()
}

// newOracle returns a reference matcher for the AST: Go's regexp,
// compiled as ^(?:p)$ from the AST. Its ok is false when Go rejects the
// pattern (a nested repeat past 1,000 or too large a program).
func newOracle(ast Node) func(string) (want, ok bool) {
	if src, ok := goSyntax(ast); ok {
		if re, err := regexp.Compile(`^(?:` + src + `)$`); err == nil {
			return func(s string) (bool, bool) { return re.MatchString(s), true }
		}
	}
	return func(string) (bool, bool) { return false, false }
}

// goSyntax renders the AST in Go's syntax, every class as explicit
// ranges, so the two dialects' escapes, classes and '.' cannot diverge. A
// bound past the 1,000 Go admits is unrolled into copies (r{n,m} is n
// copies of r and m-n of r?), up to a megabyte of pattern.
func goSyntax(n Node) (string, bool) {
	switch x := n.(type) {
	case Chars:
		if len(x.Set.Ranges) == 0 {
			return `[^\x{0}-\x{10ffff}]`, true
		}
		var b strings.Builder
		b.WriteByte('[')
		for _, rg := range x.Set.Ranges {
			fmt.Fprintf(&b, `\x{%x}-\x{%x}`, rg.Lo, rg.Hi)
		}
		b.WriteByte(']')
		return b.String(), true
	case Concat, Alt:
		items, sep := []Node(nil), ""
		if c, ok := x.(Concat); ok {
			items = c.Items
		} else {
			items, sep = x.(Alt).Alts, "|"
		}
		parts := make([]string, len(items))
		for i, it := range items {
			s, ok := goSyntax(it)
			if !ok {
				return "", false
			}
			parts[i] = `(?:` + s + `)`
		}
		return strings.Join(parts, sep), true
	case Repeat:
		s, ok := goSyntax(x.Sub)
		if !ok {
			return "", false
		}
		g := `(?:` + s + `)`
		switch {
		case x.Min <= 1000 && x.Max <= 1000 && x.Max < 0:
			return fmt.Sprintf(`%s{%d,}`, g, x.Min), true
		case x.Min <= 1000 && x.Max <= 1000:
			return fmt.Sprintf(`%s{%d,%d}`, g, x.Min, x.Max), true
		case (len(g)+1)*max(x.Min+1, x.Max) > 1<<20:
			return "", false
		case x.Max < 0:
			return strings.Repeat(g, x.Min) + g + "*", true
		}
		return strings.Repeat(g, x.Min) + strings.Repeat(g+"?", x.Max-x.Min), true
	default: // Empty
		return ``, true
	}
}

// mapInput maps each byte of s onto a small ASCII alphabet: the ends of the
// pattern's ranges that are ASCII, their neighbours, and 'a'.
func mapInput(ast Node, s string) string {
	seen := map[rune]bool{'a': true}
	alphabet := []rune{'a'}
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case Chars:
			for _, rg := range x.Set.Ranges {
				for _, r := range []rune{rg.Lo - 1, rg.Lo, rg.Hi, rg.Hi + 1} {
					if r >= 0 && r < 128 && !seen[r] && len(alphabet) < 16 {
						seen[r] = true
						alphabet = append(alphabet, r)
					}
				}
			}
		case Concat:
			for _, it := range x.Items {
				walk(it)
			}
		case Alt:
			for _, it := range x.Alts {
				walk(it)
			}
		case Repeat:
			walk(x.Sub)
		}
	}
	walk(ast)
	out := make([]rune, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = alphabet[int(s[i])%len(alphabet)]
	}
	return string(out)
}

// TestLargeBoundsAgainstExpansion pins bounds past Go's 1,000 against Go's
// regexp on their unrolled expansion, on inputs around each bound.
func TestLargeBoundsAgainstExpansion(t *testing.T) {
	for _, c := range []struct {
		pattern string
		unit    string
		counts  []int
	}{
		{`a{1001}`, "a", []int{1000, 1001, 1002}},
		{`a{1001,1500}`, "a", []int{1000, 1001, 1500, 1501}},
		{`(ab){1200,}`, "ab", []int{1199, 1200, 1300}},
		{`(a|b)*a(a|b){1100}`, "ab", []int{1100, 1101}},
		{`[a-c]{0,2000}x?`, "cab", []int{600, 667, 700}},
	} {
		var ins []string
		for _, n := range c.counts {
			ins = append(ins, strings.Repeat(c.unit, n))
		}
		if n := checkOracle(t, c.pattern, ins...); n != len(ins) {
			t.Errorf("%s: the oracle decided %d of %d inputs", c.pattern, n, len(ins))
		}
	}
}
