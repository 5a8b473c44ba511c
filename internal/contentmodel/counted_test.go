package contentmodel

import (
	"strings"
	"testing"
	"time"
)

// Limits of the count expansion the position automaton was once built
// by: models past them were never expanded, so the oracle skips them.
const (
	expandPositions = 4096
	expandAllGroup  = 4
)

// fuzzPositions is the fuzzer's smaller position limit: expanded
// automata of a few thousand positions take seconds to check for UPA.
const fuzzPositions = 256

// expandParticle rewrites counts into copies — x{m,n} becomes m copies of
// x then n-m copies of x?, x{m,} becomes m copies then x* — and all
// groups into a choice of their members' permutations, all at the
// Particle level. Copies share their leaves, so compiling the result
// gives the count-expanded automaton, with no counter and no member set.
// It also returns the expansion's position count; ok is false past the
// expansion's limits or beyond limit positions.
func expandParticle(p *Particle, limit int) (out *Particle, positions int, ok bool) {
	if p == nil || (p.Leaf == nil && p.Group == nil) || p.Max == 0 {
		return p, 0, true
	}
	one, n, ok := expandTerm(p, limit)
	if !ok {
		return nil, 0, false
	}
	bounded := func(min, max int) *Particle { c := *one; c.Min, c.Max = min, max; return &c }
	if p.Min <= 1 && (p.Max == 1 || p.Max == Unbounded) {
		return bounded(p.Min, p.Max), n, true
	}
	copies := p.Max
	if p.Max == Unbounded {
		copies = p.Min + 1
	}
	if copies*n > limit {
		return nil, 0, false
	}
	var items []*Particle
	for i := 0; i < p.Min; i++ {
		items = append(items, bounded(1, 1))
	}
	if p.Max == Unbounded {
		items = append(items, bounded(0, Unbounded))
	}
	for i := p.Min; i < p.Max; i++ {
		items = append(items, bounded(0, 1))
	}
	return NewSequence(1, 1, items...), copies * n, true
}

// expandTerm expands p's term, bounded {1,1}.
func expandTerm(p *Particle, limit int) (*Particle, int, bool) {
	if p.Leaf != nil {
		return &Particle{Min: 1, Max: 1, Leaf: p.Leaf}, 1, true
	}
	kids := make([]*Particle, len(p.Group.Children))
	total := 0
	for i, c := range p.Group.Children {
		k, n, ok := expandParticle(c, limit)
		if !ok {
			return nil, 0, false
		}
		kids[i], total = k, total+n
	}
	switch p.Group.Kind {
	case Sequence:
		return NewSequence(1, 1, kids...), total, true
	case Choice:
		return NewChoice(1, 1, kids...), total, true
	}
	if len(kids) > expandAllGroup {
		return nil, 0, false
	}
	var perms []*Particle
	var permute func(order []*Particle, rest []*Particle)
	permute = func(order, rest []*Particle) {
		if len(rest) == 0 {
			perms = append(perms, NewSequence(1, 1, append([]*Particle{}, order...)...))
			return
		}
		for i := range rest {
			others := append(append([]*Particle{}, rest[:i]...), rest[i+1:]...)
			permute(append(order, rest[i]), others)
		}
	}
	permute(nil, kids)
	if total*len(perms) > limit {
		return nil, 0, false
	}
	return NewChoice(1, 1, perms...), total * len(perms), true
}

// expanded compiles p's count expansion, or returns nil past its limits
// or beyond limit positions.
func expanded(t testing.TB, p *Particle, limit int) *Glushkov {
	t.Helper()
	x, _, ok := expandParticle(p, limit)
	if !ok {
		return nil
	}
	g, err := CompileGlushkov(x)
	if err != nil {
		t.Fatalf("compile expansion of %v: %v", p, err)
	}
	if len(g.scopes) != 0 {
		t.Fatalf("expansion of %v kept a scope", p)
	}
	return g
}

// assertSameAsExpanded steps seq through a run of g and an NFA run of its
// expansion x and fails unless they agree: the same MatchError text and
// index at the same step, the same End, and, when the model is UPA-clean,
// the same leaf at every step. It also fails when g's run holds more
// configurations than x's holds positions, which maxConfigs relies on.
func assertSameAsExpanded(t testing.TB, p *Particle, g, x *Glushkov, r *Run, seq []Symbol) {
	t.Helper()
	clean := g.CheckUPA() == nil
	xr := x.StartNFA()
	for i, s := range seq {
		gl, ge := r.Step(s)
		xl, xe := xr.Step(s)
		if matchErrString(ge) != matchErrString(xe) {
			t.Fatalf("%v on %v, step %d: %s; expanded: %s", p, seq, i, matchErrString(ge), matchErrString(xe))
		}
		if ge != nil {
			return
		}
		if clean && gl != xl {
			t.Fatalf("%v on %v, step %d: leaf %v; expanded: %v", p, seq, i, gl.Data, xl.Data)
		}
		if n, xn := runConfigs(r), len(xr.nfa.cfgs); n > xn {
			t.Fatalf("%v on %v, step %d: %d configurations; expanded: %d positions", p, seq, i, n, xn)
		}
	}
	if ge, xe := r.End(), xr.End(); matchErrString(ge) != matchErrString(xe) {
		t.Fatalf("%v on %v, end: %s; expanded: %s", p, seq, matchErrString(ge), matchErrString(xe))
	}
}

// runConfigs counts the configurations r holds.
func runConfigs(r *Run) int {
	var set []int
	if r.d != nil {
		set = r.ds.cfgs
	} else {
		set = r.nfa.cfgs
	}
	n := 0
	r.g.configs(set, func(int, []int) bool { n++; return true })
	return n
}

// TestCountedOracleRows pins counted models against their expansions on
// every sequence of a's up to length 5.
func TestCountedOracleRows(t *testing.T) {
	for _, c := range []struct {
		p      *Particle
		accept string // lengths accepted, as digits
	}{
		{NewSequence(2, 2, el("a", 1, 2)), "234"},
		{el("a", 2, 4), "234"},
		{NewSequence(1, 1, el("a", 0, 2), el("b", 0, 1)), "012"},
		{NewChoice(2, Unbounded, el("a", 1, 2)), "2345"},
		{NewSequence(0, 3, el("a", 0, 1)), "0123"},
	} {
		g, err := CompileGlushkov(c.p)
		if err != nil {
			t.Fatal(err)
		}
		x := expanded(t, c.p, expandPositions)
		for n := 0; n <= 5; n++ {
			seq := syms(strings.TrimSpace(strings.Repeat("a ", n)))
			_, err := g.Match(seq)
			if want := strings.ContainsRune(c.accept, rune('0'+n)); (err == nil) != want {
				t.Errorf("%v over a^%d: accepted=%v, want %v (%v)", c.p, n, err == nil, want, err)
			}
			assertSameAsExpanded(t, c.p, g, x, g.StartNFA(), seq)
		}
	}
}

// TestNestedCountersStaySmall: dominance keeps (a{1,1000}){1,1000} at a
// few configurations over 2,000 children, which it accepts.
func TestNestedCountersStaySmall(t *testing.T) {
	g, err := CompileGlushkov(NewSequence(1, 1000, el("a", 1, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	r := g.StartNFA()
	for i := 0; i < 2000; i++ {
		if _, err := r.Step(sym("a")); err != nil {
			t.Fatalf("child %d: %v", i, err)
		}
		if n := len(r.nfa.cfgs) / 3; n > 3 {
			t.Fatalf("child %d: %d configurations", i, n)
		}
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// TestCapCoversExpansionBudget: (a{1,2}){2048} expanded to exactly 4,096
// positions, the old expansion's budget. After 2,048 a's its outer counter
// holds 1,025 values, 1,024 of them below the minimum, so a cap below the
// budget rejected every valid sequence of it. One run per executor steps
// 4,096 a's, checking where the content may end on the way, and must not
// admit a 4,097th.
func TestCapCoversExpansionBudget(t *testing.T) {
	p := NewSequence(2048, 2048, el("a", 1, 2))
	if _, n, ok := expandParticle(p, expandPositions); !ok || n != expandPositions {
		t.Fatalf("expansion: %d positions, ok=%v; want %d", n, ok, expandPositions)
	}
	g, err := CompileGlushkov(p)
	if err != nil {
		t.Fatal(err)
	}
	if !g.EnableDFA(NewInterner()) {
		t.Fatal("no DFA")
	}
	a := sym("a")
	for name, r := range map[string]*Run{"nfa": g.StartNFA(), "dfa": g.Start()} {
		for n := 1; n <= 4096; n++ {
			if _, err := r.Step(a); err != nil {
				t.Fatalf("%s: a %d: %v", name, n, err)
			}
			if n == 2047 || n == 2048 {
				if got := accepting(r); got != (n == 2048) {
					t.Errorf("%s: may end after %d a's: %v", name, n, got)
				}
			}
		}
		if r.Admits(a) {
			t.Errorf("%s: admits a 4,097th a", name)
		}
		if err := r.End(); err != nil {
			t.Errorf("%s: end after 4,096 a's: %v", name, err)
		}
	}
}

// accepting reports whether r may end its content now.
func accepting(r *Run) bool {
	if r.d != nil {
		return r.ds.accept
	}
	return r.g.acceptSet(r.nfa.cfgs)
}

// TestConfigurationCap: an all group of 16 optional a's holds a
// configuration per subset of members matched so far, so the fourth a
// outgrows the configuration cap, and the step that does says so at once
// instead of stalling. (Counters below their minimums grow a set by about
// one configuration per child: (a{100,200}){100,200} reaches the cap only
// at its 8,196th a.)
func TestConfigurationCap(t *testing.T) {
	var members []*Particle
	for i := 0; i < 16; i++ {
		members = append(members, el("a", 0, 1))
	}
	g, err := CompileGlushkov(NewAll(1, 1, members...))
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	r := g.StartNFA()
	for i := 0; ; i++ {
		_, merr := r.Step(sym("a"))
		if merr == nil {
			continue
		}
		if merr.Cause == "" || !strings.Contains(merr.Error(), "configurations") || merr.Index != i {
			t.Fatalf("step %d: %v, want the configuration cap", i, merr)
		}
		break
	}
	if d := time.Since(begin); d > 10*time.Second {
		t.Errorf("reaching the cap took %v", d)
	}
}

// FuzzCountedMatchesExpanded decodes a particle with counts up to 12 and
// all groups up to four members, plus a symbol sequence, and checks the
// automaton against its count expansion: the same UPA verdict, and on
// the sequence the same leaves, MatchError text and index, and End. The
// run steps the lazy DFA where the model admits one.
func FuzzCountedMatchesExpanded(f *testing.F) {
	f.Add([]byte{0, 5, 7, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 2, 1, 2, 0, 4, 3, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0})
	f.Add([]byte{6, 1, 0, 1, 3, 0, 1, 1, 1, 2, 0, 3, 1, 0, 1, 2, 3})
	f.Add([]byte{5, 2, 3, 1, 2, 0, 0, 1, 1, 0, 6, 9, 1, 2, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		c := &fuzzCursor{data: data, counts: 12}
		p := c.particle(0)
		g, err := CompileGlushkov(p)
		if err != nil {
			t.Fatal(err)
		}
		x := expanded(t, p, fuzzPositions)
		if x == nil {
			return
		}
		if (g.CheckUPA() == nil) != (x.CheckUPA() == nil) {
			t.Fatalf("%v: UPA %v; expanded: %v", p, g.CheckUPA(), x.CheckUPA())
		}
		g.EnableDFA(NewInterner())
		var seq []Symbol
		for c.off < len(c.data) && len(seq) < 64 {
			seq = append(seq, fuzzAlphabet[int(c.next())%len(fuzzAlphabet)])
		}
		assertSameAsExpanded(t, p, g, x, g.Start(), seq)
	})
}
