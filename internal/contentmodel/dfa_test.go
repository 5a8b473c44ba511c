package contentmodel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// modelZoo is the hand-built particle corpus the differential tests sweep:
// every compositor, occurrence shape and leaf kind the compiler emits.
func modelZoo() map[string]*Particle {
	leaf := NewElementLeaf
	return map[string]*Particle{
		"po-items": NewSequence(1, 1,
			leaf(0, Unbounded, sym("item"), "item")),
		"po-order": NewSequence(1, 1,
			leaf(1, 1, sym("shipTo"), "shipTo"),
			leaf(1, 1, sym("billTo"), "billTo"),
			leaf(0, 1, sym("comment"), "comment"),
			leaf(1, 1, sym("items"), "items")),
		"choice-star": NewChoice(0, Unbounded,
			leaf(1, 1, sym("a"), "a"),
			leaf(1, 1, sym("b"), "b"),
			leaf(1, 1, sym("c"), "c")),
		"nested-optional": NewSequence(1, 1,
			leaf(0, 1, sym("head"), "head"),
			NewSequence(0, Unbounded,
				leaf(1, 1, sym("key"), "key"),
				leaf(1, 1, sym("value"), "value")),
			leaf(0, 1, sym("tail"), "tail")),
		"counted": NewSequence(1, 1,
			leaf(2, 4, sym("x"), "x"),
			leaf(1, 1, sym("end"), "end")),
		"all-group": NewAll(1, 1,
			leaf(1, 1, sym("one"), "one"),
			leaf(1, 1, sym("two"), "two"),
			leaf(0, 1, sym("three"), "three")),
		"substitution-names": NewSequence(1, 1, &Particle{
			Min: 1, Max: Unbounded,
			Leaf: &Leaf{Names: []Symbol{sym("comment"), sym("shipComment"), sym("customerComment")}, Data: "comments"},
		}),
		"wildcard-tail": NewSequence(1, 1,
			leaf(1, 1, sym("name"), "name"),
			&Particle{Min: 0, Max: Unbounded,
				Leaf: &Leaf{Wildcard: &Wildcard{Kind: WildList, Namespaces: []string{"urn:ext"}}, Data: "ext"}}),
		"wildcard-other": NewSequence(1, 1,
			&Particle{Min: 0, Max: Unbounded,
				Leaf: &Leaf{Wildcard: &Wildcard{Kind: WildOther, TargetNS: "urn:tns"}, Data: "other"}},
			&Particle{Min: 1, Max: 1,
				Leaf: &Leaf{Names: []Symbol{{Space: "urn:tns", Local: "end"}}, Data: "end"}}),
		"empty":    NewSequence(1, 1),
		"nullable": NewChoice(0, 1, leaf(1, 1, sym("only"), "only")),
	}
}

// symbolPool builds the generation alphabet for a model: its own names,
// wildcard-admitted names, and foreign symbols no leaf accepts.
func symbolPool(g *Glushkov) []Symbol {
	pool := g.Alphabet()
	pool = append(pool,
		Symbol{Space: "urn:ext", Local: "extElem"},
		Symbol{Space: "urn:other", Local: "stranger"},
		Symbol{Space: "urn:tns", Local: "local"},
		Symbol{Local: "zzz-unknown"},
	)
	return pool
}

// stepAccepts reports whether appending next to a known-steppable prefix
// still steps (replays the prefix on a fresh NFA run).
func stepAccepts(g *Glushkov, prefix []Symbol, next Symbol) bool {
	r := g.StartNFA()
	for _, s := range prefix {
		if _, err := r.Step(s); err != nil {
			return false
		}
	}
	_, err := r.Step(next)
	return err == nil
}

// genSequences produces valid and invalid child sequences for the model:
// greedy valid walks, truncations, single-symbol mutations, and pure noise.
func genSequences(g *Glushkov, rng *rand.Rand) [][]Symbol {
	alpha := g.Alphabet()
	pool := symbolPool(g)
	var seqs [][]Symbol
	for t := 0; t < 6; t++ {
		var seq []Symbol
		for len(seq) < 10 {
			found := false
			for _, i := range rng.Perm(len(alpha)) {
				if stepAccepts(g, seq, alpha[i]) {
					seq = append(seq, alpha[i])
					found = true
					break
				}
			}
			if !found || rng.Intn(3) == 0 {
				break
			}
		}
		seqs = append(seqs, seq)
		if n := len(seq); n > 0 {
			mut := append([]Symbol{}, seq...)
			mut[rng.Intn(n)] = pool[rng.Intn(len(pool))]
			seqs = append(seqs, mut, seq[:rng.Intn(n)])
		}
	}
	for t := 0; t < 6; t++ {
		var seq []Symbol
		for i, n := 0, rng.Intn(6); i < n; i++ {
			seq = append(seq, pool[rng.Intn(len(pool))])
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// assertSameRun drives one sequence through a DFA-backed run and an NFA
// run and fails unless every observable — leaf assignment per step, error
// position, error message — is identical.
func assertSameRun(t *testing.T, g *Glushkov, dr, nr *Run, seq []Symbol) {
	t.Helper()
	for i, s := range seq {
		dl, de := dr.Step(s)
		nl, ne := nr.Step(s)
		if (de == nil) != (ne == nil) {
			t.Fatalf("step %d (%v): DFA err=%v NFA err=%v", i, s, de, ne)
		}
		if de != nil {
			if !reflect.DeepEqual(de, ne) || de.Error() != ne.Error() {
				t.Fatalf("step %d (%v): errors diverged:\n  dfa: %#v\n  nfa: %#v", i, s, de, ne)
			}
			return
		}
		if dl != nl {
			t.Fatalf("step %d (%v): leaf diverged: dfa=%v nfa=%v", i, s, dl.Data, nl.Data)
		}
	}
	de, ne := dr.End(), nr.End()
	if (de == nil) != (ne == nil) {
		t.Fatalf("end after %d: DFA err=%v NFA err=%v", len(seq), de, ne)
	}
	if de != nil && (!reflect.DeepEqual(de, ne) || de.Error() != ne.Error()) {
		t.Fatalf("end errors diverged:\n  dfa: %#v\n  nfa: %#v", de, ne)
	}
}

// TestDFAMatchesNFAModelZoo sweeps the particle corpus: per model, DFA and
// NFA steppers must agree on every generated sequence, both on cold
// (building) and warm (memoized) DFA passes.
func TestDFAMatchesNFAModelZoo(t *testing.T) {
	for name, p := range modelZoo() {
		t.Run(name, func(t *testing.T) {
			g, err := CompileGlushkov(p)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if !g.EnableDFA(NewInterner()) {
				t.Fatalf("EnableDFA refused a UPA-clean model")
			}
			rng := rand.New(rand.NewSource(0x5eed))
			seqs := genSequences(g, rng)
			for pass := 0; pass < 2; pass++ { // cold, then memoized
				for _, seq := range seqs {
					assertSameRun(t, g, g.Start(), g.StartNFA(), seq)
				}
			}
			// Reset-based reuse (the stream validator's pattern).
			dr, nr := g.Start(), g.StartNFA()
			for _, seq := range seqs {
				dr.Reset(g)
				nr.Reset(g)
				assertSameRun(t, g, dr, nr, seq)
			}
		})
	}
}

// TestDFABudgetFallback forces the state budget to overflow mid-run and
// checks the reseeded NFA continuation still matches pure NFA stepping.
func TestDFABudgetFallback(t *testing.T) {
	for name, p := range modelZoo() {
		t.Run(name, func(t *testing.T) {
			g, err := CompileGlushkov(p)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if !g.EnableDFA(NewInterner()) {
				t.Fatalf("EnableDFA refused")
			}
			rng := rand.New(rand.NewSource(42))
			for _, seq := range genSequences(g, rng) {
				dr := new(Run)
				dr.ResetLimit(g, false, 2) // start state + one successor
				assertSameRun(t, g, dr, g.StartNFA(), seq)
			}
			if n := g.DFAStates(); n > 2 {
				t.Fatalf("budget 2 exceeded: %d states", n)
			}
		})
	}
}

// TestDFAConcurrent races many steppers over one shared automaton while
// the lazy DFA is still being built (meaningful under -race).
func TestDFAConcurrent(t *testing.T) {
	p := modelZoo()["nested-optional"]
	g, err := CompileGlushkov(p)
	if err != nil {
		t.Fatal(err)
	}
	if !g.EnableDFA(NewInterner()) {
		t.Fatal("EnableDFA refused")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for _, seq := range genSequences(g, rng) {
				dr, nr := g.Start(), g.StartNFA()
				for i, s := range seq {
					dl, de := dr.Step(s)
					nl, ne := nr.Step(s)
					if (de == nil) != (ne == nil) || (de == nil && dl != nl) {
						t.Errorf("worker %d step %d diverged", seed, i)
						return
					}
					if de != nil {
						if de.Error() != ne.Error() {
							t.Errorf("worker %d: error text diverged", seed)
						}
						break
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestDFAUPAGate: ambiguous models must keep the NFA stepper.
func TestDFAUPAGate(t *testing.T) {
	amb := NewChoice(1, 1,
		NewSequence(1, 1, NewElementLeaf(1, 1, sym("a"), "a1"), NewElementLeaf(1, 1, sym("b"), "b")),
		NewSequence(1, 1, NewElementLeaf(1, 1, sym("a"), "a2"), NewElementLeaf(1, 1, sym("c"), "c")),
	)
	g, err := CompileGlushkov(amb)
	if err != nil {
		t.Fatal(err)
	}
	if g.EnableDFA(NewInterner()) {
		t.Fatal("EnableDFA accepted a UPA-violating model")
	}
	if g.DFAEnabled() {
		t.Fatal("DFA attached despite refusal")
	}
}

// TestRunDeadAfterError: a Run that reported an error must panic on
// further use until Reset re-arms it (the pooled-frame safety net).
func TestRunDeadAfterError(t *testing.T) {
	p := modelZoo()["po-order"]
	g, err := CompileGlushkov(p)
	if err != nil {
		t.Fatal(err)
	}
	g.EnableDFA(NewInterner())
	for _, mode := range []string{"dfa", "nfa"} {
		t.Run(mode, func(t *testing.T) {
			r := g.Start()
			if mode == "nfa" {
				r = g.StartNFA()
			}
			if _, err := r.Step(sym("nonsense")); err == nil {
				t.Fatal("expected step error")
			}
			assertPanics(t, func() { r.Step(sym("shipTo")) })
			assertPanics(t, func() { r.End() })
			r.Reset(g)
			if _, err := r.Step(sym("shipTo")); err != nil {
				t.Fatalf("reset run must step: %v", err)
			}
		})
	}
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// TestInterner covers dense IDs and concurrent lookup stability.
func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern(sym("a"))
	b := in.Intern(sym("b"))
	if a == b || in.Intern(sym("a")) != a || in.Len() != 2 {
		t.Fatalf("bad interning: a=%d b=%d len=%d", a, b, in.Len())
	}
	if id, ok := in.Lookup(sym("b")); !ok || id != b {
		t.Fatalf("lookup b: %d %v", id, ok)
	}
	if _, ok := in.Lookup(sym("c")); ok {
		t.Fatal("phantom symbol")
	}
}

// shapeModels are representative content-model shapes: repetition,
// choice, optionality, substitution-name leaves, all-groups, wildcards.
func shapeModels() []struct {
	name     string
	particle *Particle
	alphabet []Symbol
} {
	sub := &Particle{Min: 1, Max: 1, Leaf: &Leaf{Names: []Symbol{{Local: "head"}, {Local: "member"}}}}
	wild := &Particle{Min: 0, Max: Unbounded, Leaf: &Leaf{Wildcard: &Wildcard{Kind: WildOther, TargetNS: "urn:t"}}}
	return []struct {
		name     string
		particle *Particle
		alphabet []Symbol
	}{
		{
			name:     "items-star",
			particle: NewSequence(1, 1, NewElementLeaf(0, Unbounded, Symbol{Local: "item"}, "item")),
			alphabet: []Symbol{{Local: "item"}, {Local: "other"}},
		},
		{
			name: "seq-opt-choice",
			particle: NewSequence(1, 1,
				NewElementLeaf(1, 1, Symbol{Local: "a"}, "a"),
				NewElementLeaf(0, 1, Symbol{Local: "b"}, "b"),
				NewChoice(1, 1,
					NewElementLeaf(1, 1, Symbol{Local: "c"}, "c"),
					NewElementLeaf(1, 2, Symbol{Local: "d"}, "d"),
				),
			),
			alphabet: []Symbol{{Local: "a"}, {Local: "b"}, {Local: "c"}, {Local: "d"}},
		},
		{
			name:     "substitution-head",
			particle: NewSequence(1, 1, sub, NewElementLeaf(0, 1, Symbol{Local: "tail"}, "tail")),
			alphabet: []Symbol{{Local: "head"}, {Local: "member"}, {Local: "tail"}},
		},
		{
			name: "all-group",
			particle: NewAll(1, 1,
				NewElementLeaf(1, 1, Symbol{Local: "x"}, "x"),
				NewElementLeaf(1, 1, Symbol{Local: "y"}, "y"),
				NewElementLeaf(0, 1, Symbol{Local: "z"}, "z"),
			),
			alphabet: []Symbol{{Local: "x"}, {Local: "y"}, {Local: "z"}},
		},
		{
			name: "wildcard-tail",
			particle: NewSequence(1, 1,
				NewElementLeaf(1, 1, Symbol{Space: "urn:t", Local: "lead"}, "lead"),
				wild,
			),
			alphabet: []Symbol{
				{Space: "urn:t", Local: "lead"},
				{Space: "urn:x", Local: "foreign"},
				{Space: "urn:y", Local: "foreign"},
				{Local: "unqualified"},
			},
		},
	}
}

// enumSequences yields every sequence over the alphabet up to maxLen.
func enumSequences(alphabet []Symbol, maxLen int) [][]Symbol {
	out := [][]Symbol{nil}
	prev := [][]Symbol{nil}
	for l := 1; l <= maxLen; l++ {
		var next [][]Symbol
		for _, p := range prev {
			for _, s := range alphabet {
				seq := append(append([]Symbol{}, p...), s)
				next = append(next, seq)
			}
		}
		out = append(out, next...)
		prev = next
	}
	return out
}

func matchErrString(e *MatchError) string {
	if e == nil {
		return "<accept>"
	}
	return fmt.Sprintf("index=%d premature=%v msg=%q", e.Index, e.Premature, e.Error())
}

// TestLazyDFAMatchesStepper pins the lazy DFA against the NFA stepper on
// every sequence up to length 4 over each shape's extended alphabet:
// verdicts, leaf attribution, and MatchError values (index, premature
// flag, expected list, full message text) must be identical.
func TestLazyDFAMatchesStepper(t *testing.T) {
	for _, m := range shapeModels() {
		t.Run(m.name, func(t *testing.T) {
			nfa, err := CompileGlushkov(m.particle)
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := CompileGlushkov(m.particle)
			if err != nil {
				t.Fatal(err)
			}
			if !lazy.EnableDFA(NewInterner()) {
				t.Fatal("EnableDFA refused a UPA-clean model")
			}
			for _, seq := range enumSequences(m.alphabet, 4) {
				wantLeaves, wantErr := nfa.Match(seq)
				gotLeaves, gotErr := lazy.Match(seq)
				if matchErrString(gotErr) != matchErrString(wantErr) {
					t.Fatalf("seq %v: lazy DFA %s, NFA %s", seq, matchErrString(gotErr), matchErrString(wantErr))
				}
				if gotErr != nil {
					if !reflect.DeepEqual(gotErr.Expected, wantErr.Expected) {
						t.Fatalf("seq %v: expected lists differ: %v vs %v", seq, gotErr.Expected, wantErr.Expected)
					}
					continue
				}
				for i := range seq {
					if gotLeaves[i] != wantLeaves[i] {
						t.Fatalf("seq %v: leaf attribution differs at %d: %v vs %v", seq, i, gotLeaves[i], wantLeaves[i])
					}
				}
			}
		})
	}
}
