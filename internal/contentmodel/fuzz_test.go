package contentmodel

import (
	"testing"
)

// fuzzAlphabet is the symbol space fuzz inputs index into: plain names,
// namespaced names that wildcards may admit, and a foreign name.
var fuzzAlphabet = []Symbol{
	{Local: "a"}, {Local: "b"}, {Local: "c"}, {Local: "d"},
	{Space: "urn:ext", Local: "x"},
	{Space: "urn:tns", Local: "y"},
	{Space: "urn:zzz", Local: "stranger"},
}

// fuzzCursor decodes a byte stream into a particle tree and a symbol
// sequence. Every byte stream decodes to something; depth and width are
// bounded so position counts stay small.
type fuzzCursor struct {
	data []byte
	off  int
	// counts, when set, widens occurrence bounds to 0..counts and lets
	// all groups take bounds and up to four members of any shape.
	counts int
}

func (c *fuzzCursor) next() byte {
	if c.off >= len(c.data) {
		return 0
	}
	b := c.data[c.off]
	c.off++
	return b
}

func (c *fuzzCursor) particle(depth int) *Particle {
	op := c.next()
	if depth >= 4 {
		op %= 3 // leaves only
	}
	lo, hi := c.next(), c.next()
	min, max := int(lo%3), int(lo%3)+int(hi%3)
	if c.counts > 0 {
		min = int(lo) % (c.counts + 1)
		max = min + int(hi)%(c.counts+1-min)
	}
	if c.next()%5 == 0 {
		max = Unbounded
	}
	if max != Unbounded && max == 0 {
		max = 1
	}
	switch op % 7 {
	case 0, 1: // named leaf
		s := fuzzAlphabet[int(c.next())%4]
		return NewElementLeaf(min, max, s, s.Local)
	case 2: // wildcard leaf
		switch c.next() % 3 {
		case 0:
			return &Particle{Min: min, Max: max, Leaf: &Leaf{Wildcard: &Wildcard{Kind: WildAny}, Data: "any"}}
		case 1:
			return &Particle{Min: min, Max: max, Leaf: &Leaf{Wildcard: &Wildcard{Kind: WildOther, TargetNS: "urn:tns"}, Data: "other"}}
		default:
			return &Particle{Min: min, Max: max, Leaf: &Leaf{Wildcard: &Wildcard{Kind: WildList, Namespaces: []string{"urn:ext", "urn:tns"}}, Data: "list"}}
		}
	case 3, 4: // sequence
		n := 1 + int(c.next()%3)
		kids := make([]*Particle, n)
		for i := range kids {
			kids[i] = c.particle(depth + 1)
		}
		return NewSequence(min, max, kids...)
	case 5: // choice
		n := 1 + int(c.next()%3)
		kids := make([]*Particle, n)
		for i := range kids {
			kids[i] = c.particle(depth + 1)
		}
		return NewChoice(min, max, kids...)
	default: // all group (compiler restricts occurs)
		if c.counts > 0 {
			kids := make([]*Particle, 1+int(c.next()%4))
			for i := range kids {
				kids[i] = c.particle(depth + 1)
			}
			return NewAll(min, max, kids...)
		}
		n := 1 + int(c.next()%2)
		kids := make([]*Particle, n)
		for i := range kids {
			s := fuzzAlphabet[int(c.next())%4]
			kids[i] = NewElementLeaf(int(c.next()%2), 1, s, s.Local)
		}
		return NewAll(1, 1, kids...)
	}
}

// FuzzDFAContentModel decodes a random particle grammar plus a symbol
// sequence and checks the lazy DFA and the NFA stepper agree on every
// observable: per-step leaf assignment, error step, and error message.
// Odd-length inputs run with a tiny state budget to exercise the mid-run
// NFA fallback path.
func FuzzDFAContentModel(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 1, 2, 3})
	f.Add([]byte{3, 1, 2, 1, 0, 0, 1, 0, 2, 1, 0, 1, 2, 3, 0, 1})
	f.Add([]byte{5, 0, 2, 1, 3, 2, 1, 0, 2, 2, 0, 4, 5, 6, 0, 1, 2})
	f.Add([]byte{6, 1, 1, 1, 0, 1, 1, 0, 3, 2, 1, 0})
	f.Add([]byte{2, 0, 1, 1, 1, 4, 5, 6, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		c := &fuzzCursor{data: data}
		p := c.particle(0)
		g, err := CompileGlushkov(p)
		if err != nil {
			return // counted model too large etc. — not this fuzzer's target
		}
		budget := 0
		if len(data)%2 == 1 {
			budget = 2
		}
		if g.CheckUPA() != nil || !g.EnableDFA(NewInterner()) {
			return // UPA-violating or wildcard-heavy grammar: NFA-only
		}
		var seq []Symbol
		for c.off < len(c.data) && len(seq) < 64 {
			seq = append(seq, fuzzAlphabet[int(c.next())%len(fuzzAlphabet)])
		}
		// Two passes so memoized transitions are checked too.
		for pass := 0; pass < 2; pass++ {
			dr, nr := new(Run), g.StartNFA()
			dr.ResetLimit(g, false, budget)
			errored := false
			for i, s := range seq {
				dl, de := dr.Step(s)
				nl, ne := nr.Step(s)
				if (de == nil) != (ne == nil) {
					t.Fatalf("step %d (%v): dfa err=%v nfa err=%v", i, s, de, ne)
				}
				if de != nil {
					if de.Error() != ne.Error() || de.Index != ne.Index {
						t.Fatalf("step %d: error diverged:\n  dfa: %v\n  nfa: %v", i, de, ne)
					}
					errored = true
					break
				}
				if dl != nl {
					t.Fatalf("step %d (%v): leaf diverged: %q vs %q", i, s, dl.Data, nl.Data)
				}
			}
			if errored {
				continue
			}
			de, ne := dr.End(), nr.End()
			if (de == nil) != (ne == nil) {
				t.Fatalf("end: dfa err=%v nfa err=%v", de, ne)
			}
			if de != nil && de.Error() != ne.Error() {
				t.Fatalf("end error diverged:\n  dfa: %v\n  nfa: %v", de, ne)
			}
		}
	})
}
