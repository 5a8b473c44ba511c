package contentmodel

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// sym builds a no-namespace symbol.
func sym(local string) Symbol { return Symbol{Local: local} }

// syms splits "a b c" into symbols.
func syms(s string) []Symbol {
	if s == "" {
		return nil
	}
	parts := strings.Fields(s)
	out := make([]Symbol, len(parts))
	for i, p := range parts {
		out[i] = sym(p)
	}
	return out
}

// el is shorthand for a single-element leaf particle.
func el(name string, min, max int) *Particle {
	return NewElementLeaf(min, max, sym(name), name)
}

// purchaseOrderModel is the paper's PurchaseOrderType content model:
// sequence(shipTo, billTo, comment?, items).
func purchaseOrderModel() *Particle {
	return NewSequence(1, 1,
		el("shipTo", 1, 1),
		el("billTo", 1, 1),
		el("comment", 0, 1),
		el("items", 1, 1),
	)
}

// choiceModel is the paper's evolved model: sequence(choice(singAddr,
// twoAddr), comment?, items).
func choiceModel() *Particle {
	return NewSequence(1, 1,
		NewChoice(1, 1, el("singAddr", 1, 1), el("twoAddr", 1, 1)),
		el("comment", 0, 1),
		el("items", 1, 1),
	)
}

// matchers returns the automaton and, where the expansion covers the
// model, the count-expanded oracle automaton for cross-checking.
func matchers(t *testing.T, p *Particle) map[string]*Glushkov {
	t.Helper()
	g, err := CompileGlushkov(p)
	if err != nil {
		t.Fatalf("CompileGlushkov: %v", err)
	}
	out := map[string]*Glushkov{"glushkov": g}
	if x := expanded(t, p, expandPositions); x != nil {
		out["expanded"] = x
	}
	return out
}

type acceptCase struct {
	input string
	want  bool
}

func runCases(t *testing.T, p *Particle, cases []acceptCase) {
	t.Helper()
	for name, m := range matchers(t, p) {
		for _, c := range cases {
			_, err := m.Match(syms(c.input))
			got := err == nil
			if got != c.want {
				t.Errorf("%s: %v on %q = %v, want %v (err: %v)", name, p, c.input, got, c.want, err)
			}
		}
	}
}

func TestPurchaseOrderSequence(t *testing.T) {
	runCases(t, purchaseOrderModel(), []acceptCase{
		{"shipTo billTo comment items", true},
		{"shipTo billTo items", true}, // comment is optional
		{"shipTo billTo", false},
		{"billTo shipTo items", false}, // order matters
		{"shipTo billTo comment comment items", false},
		{"shipTo billTo items extra", false},
		{"", false},
	})
}

func TestChoiceGroup(t *testing.T) {
	runCases(t, choiceModel(), []acceptCase{
		{"singAddr comment items", true},
		{"twoAddr items", true},
		{"singAddr twoAddr items", false}, // choice picks one
		{"comment items", false},
		{"items", false},
	})
}

func TestOccurrenceBounds(t *testing.T) {
	// item{0,unbounded} — the paper's Items type.
	p := NewSequence(1, 1, el("item", 0, Unbounded))
	runCases(t, p, []acceptCase{
		{"", true},
		{"item", true},
		{"item item item item item", true},
		{"item other", false},
	})
	// quantity{2,4}.
	q := NewSequence(1, 1, el("q", 2, 4))
	runCases(t, q, []acceptCase{
		{"q", false},
		{"q q", true},
		{"q q q q", true},
		{"q q q q q", false},
	})
}

func TestNestedGroups(t *testing.T) {
	// sequence(a, choice(b, sequence(c, d))+, e?)
	p := NewSequence(1, 1,
		el("a", 1, 1),
		NewChoice(1, Unbounded,
			el("b", 1, 1),
			NewSequence(1, 1, el("c", 1, 1), el("d", 1, 1)),
		),
		el("e", 0, 1),
	)
	runCases(t, p, []acceptCase{
		{"a b", true},
		{"a c d", true},
		{"a b c d b e", true},
		{"a", false},
		{"a c", false},
		{"a c d d", false},
		{"a e", false},
	})
}

func TestAllGroup(t *testing.T) {
	p := NewAll(1, 1, el("a", 1, 1), el("b", 1, 1), el("c", 0, 1))
	runCases(t, p, []acceptCase{
		{"a b c", true},
		{"c b a", true},
		{"b a", true}, // c optional
		{"a b b c", false},
		{"a", false},
	})
}

func TestAllGroupInterpOnly(t *testing.T) {
	// Seven children, past what the permutation expansion covered: the
	// member bitset handles them with one position each.
	children := make([]*Particle, 7)
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i, n := range names {
		children[i] = el(n, 1, 1)
	}
	p := NewAll(1, 1, children...)
	m, err := CompileGlushkov(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPositions() != 7 {
		t.Errorf("positions: %d, want 7", m.NumPositions())
	}
	if _, err := m.Match(syms("g f e d c b a")); err != nil {
		t.Errorf("all: %v", err)
	}
	if _, err := m.Match(syms("g f e d c b")); err == nil {
		t.Error("all should reject missing child")
	}
}

func TestEmptyContent(t *testing.T) {
	p := NewSequence(1, 1) // empty sequence
	runCases(t, p, []acceptCase{
		{"", true},
		{"x", false},
	})
}

func TestLeafAssignment(t *testing.T) {
	p := purchaseOrderModel()
	for name, m := range matchers(t, p) {
		leaves, err := m.Match(syms("shipTo billTo items"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := []string{"shipTo", "billTo", "items"}
		for i, l := range leaves {
			if l.Data.(string) != want[i] {
				t.Errorf("%s: child %d assigned %v, want %s", name, i, l.Data, want[i])
			}
		}
	}
}

func TestSubstitutionGroupNames(t *testing.T) {
	// A leaf accepting comment + its substitution members shipComment,
	// customerComment (paper §3).
	leaf := &Leaf{Names: []Symbol{sym("comment"), sym("shipComment"), sym("customerComment")}, Data: "comment"}
	p := NewSequence(1, 1, &Particle{Min: 1, Max: 1, Leaf: leaf})
	runCases(t, p, []acceptCase{
		{"comment", true},
		{"shipComment", true},
		{"customerComment", true},
		{"otherComment", false},
	})
}

func TestWildcard(t *testing.T) {
	anyLeaf := &Particle{Min: 0, Max: Unbounded, Leaf: &Leaf{Wildcard: &Wildcard{Kind: WildAny}}}
	p := NewSequence(1, 1, el("head", 1, 1), anyLeaf)
	for name, m := range matchers(t, p) {
		if _, err := m.Match([]Symbol{sym("head"), {Space: "urn:x", Local: "foo"}, sym("bar")}); err != nil {
			t.Errorf("%s wildcard: %v", name, err)
		}
	}
	other := &Wildcard{Kind: WildOther, TargetNS: "urn:t"}
	if other.Admits("urn:t") || other.Admits("") || !other.Admits("urn:else") {
		t.Error("##other semantics wrong")
	}
	list := &Wildcard{Kind: WildList, Namespaces: []string{"", "urn:a"}}
	if !list.Admits("") || !list.Admits("urn:a") || list.Admits("urn:b") {
		t.Error("namespace list semantics wrong")
	}
}

func TestUPADetection(t *testing.T) {
	// (a | a b): classic UPA violation — 'a' attributable to two
	// particles.
	bad := NewChoice(1, 1,
		el("a", 1, 1),
		NewSequence(1, 1, el("a", 1, 1), el("b", 1, 1)),
	)
	g, err := CompileGlushkov(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckUPA(); err == nil {
		t.Error("UPA violation not detected for (a | a b)")
	}
	// (a?, a) also violates UPA.
	bad2 := NewSequence(1, 1, el("a", 0, 1), el("a", 1, 1))
	g2, _ := CompileGlushkov(bad2)
	if err := g2.CheckUPA(); err == nil {
		t.Error("UPA violation not detected for (a?, a)")
	}
	// The purchase order model is deterministic.
	g3, _ := CompileGlushkov(purchaseOrderModel())
	if err := g3.CheckUPA(); err != nil {
		t.Errorf("purchase order model flagged: %v", err)
	}
	// a{0,unbounded} is fine: both positions are the same particle.
	g4, _ := CompileGlushkov(NewSequence(1, 1, el("a", 0, Unbounded)))
	if err := g4.CheckUPA(); err != nil {
		t.Errorf("a* flagged: %v", err)
	}
}

func TestMatchErrorDetail(t *testing.T) {
	p := purchaseOrderModel()
	g, _ := CompileGlushkov(p)
	_, err := g.Match(syms("shipTo comment"))
	if err == nil {
		t.Fatal("expected error")
	}
	if err.Index != 1 || err.Got != sym("comment") {
		t.Errorf("error position: %+v", err)
	}
	found := false
	for _, e := range err.Expected {
		if e == "billTo" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected list should mention billTo: %v", err.Expected)
	}
	// Premature end.
	_, err = g.Match(syms("shipTo billTo"))
	if err == nil || !err.Premature {
		t.Errorf("premature end not flagged: %v", err)
	}
}

func TestGroupOccursOnGroups(t *testing.T) {
	// (a, b){2}
	p := NewSequence(2, 2, el("a", 1, 1), el("b", 1, 1))
	runCases(t, p, []acceptCase{
		{"a b a b", true},
		{"a b", false},
		{"a b a b a b", false},
	})
	// choice(a, b){1,3}
	q := NewChoice(1, 3, el("a", 1, 1), el("b", 1, 1))
	runCases(t, q, []acceptCase{
		{"a", true},
		{"b a b", true},
		{"a a a a", false},
		{"", false},
	})
}

func TestEmptiable(t *testing.T) {
	if !el("a", 0, 1).isEmptiable() {
		t.Error("a? should be emptiable")
	}
	if el("a", 1, 1).isEmptiable() {
		t.Error("a should not be emptiable")
	}
	if !NewSequence(1, 1, el("a", 0, 1), el("b", 0, Unbounded)).isEmptiable() {
		t.Error("(a?, b*) should be emptiable")
	}
	if !NewChoice(1, 1, el("a", 1, 1), el("b", 0, 1)).isEmptiable() {
		t.Error("(a | b?) should be emptiable")
	}
}

// TestGlushkovInterpAgree is the core property test: the automaton and
// the count-expanded oracle must agree on random inputs over random
// particle trees.
func TestGlushkovInterpAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []string{"a", "b", "c", "d"}
	var genParticle func(depth int) *Particle
	genParticle = func(depth int) *Particle {
		min := rng.Intn(2)
		max := min + rng.Intn(3)
		if rng.Intn(6) == 0 {
			max = Unbounded
		}
		if max == 0 {
			max = 1
		}
		if depth >= 2 || rng.Intn(2) == 0 {
			return el(alphabet[rng.Intn(len(alphabet))], min, max)
		}
		n := 1 + rng.Intn(3)
		kids := make([]*Particle, n)
		for i := range kids {
			kids[i] = genParticle(depth + 1)
		}
		if rng.Intn(2) == 0 {
			return NewSequence(min, max, kids...)
		}
		return NewChoice(min, max, kids...)
	}
	for trial := 0; trial < 60; trial++ {
		p := genParticle(0)
		g, err := CompileGlushkov(p)
		if err != nil {
			t.Fatal(err)
		}
		in := expanded(t, p, expandPositions)
		if in == nil {
			continue
		}
		f := func(raw []byte) bool {
			if len(raw) > 8 {
				raw = raw[:8]
			}
			input := make([]Symbol, len(raw))
			for i, b := range raw {
				input[i] = sym(alphabet[int(b)%len(alphabet)])
			}
			_, e1 := g.Match(input)
			_, e2 := in.Match(input)
			return (e1 == nil) == (e2 == nil)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("matchers disagree on %v: %v", p, err)
		}
	}
}

func TestLargeCountsFallback(t *testing.T) {
	// maxOccurs=100000 is one counter over one position.
	p := NewSequence(1, 1, el("a", 99999, 100000))
	m, err := CompileGlushkov(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPositions() != 1 {
		t.Fatalf("positions: %d, want 1", m.NumPositions())
	}
	input := make([]Symbol, 99999)
	for i := range input {
		input[i] = sym("a")
	}
	if _, err := m.Match(input); err != nil {
		t.Errorf("large count: %v", err)
	}
	if _, err := m.Match(input[:99998]); err == nil {
		t.Error("should reject count below minOccurs")
	}
}

func TestParticleString(t *testing.T) {
	p := choiceModel()
	s := p.String()
	for _, want := range []string{"singAddr | twoAddr", "comment?", "items"} {
		if !strings.Contains(s, want) {
			t.Errorf("particle string %q missing %q", s, want)
		}
	}
}
