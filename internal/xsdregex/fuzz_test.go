package xsdregex

import "testing"

// FuzzDFA cross-checks the two execution engines: for every compilable
// pattern, the Thompson NFA simulation and the subset-constructed DFA
// must agree on every input. Neither engine may panic, even on garbage
// patterns.
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
		re, err := Compile(pattern)
		if err != nil {
			return // rejected patterns just must not panic
		}
		nfa := re.MatchNFA(input)
		if _, err := re.ToDFA(); err != nil {
			return // DFA budget exceeded; NFA-only is fine
		}
		if dfa := re.MatchString(input); dfa != nfa {
			t.Fatalf("engines disagree on %q vs %q: NFA=%v DFA=%v", pattern, input, nfa, dfa)
		}
	})
}
