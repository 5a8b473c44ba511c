package contentmodel

import (
	"strings"
	"testing"
)

func TestUPAWildcardOverlaps(t *testing.T) {
	// element a | any : the wildcard can also match 'a' -> violation.
	p := NewChoice(1, 1,
		el("a", 1, 1),
		&Particle{Min: 1, Max: 1, Leaf: &Leaf{Wildcard: &Wildcard{Kind: WildAny}}},
	)
	g, err := CompileGlushkov(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.CheckUPA() == nil {
		t.Error("wildcard/element overlap not detected")
	}
	// ##other wildcard vs a no-namespace element: no overlap.
	q := NewChoice(1, 1,
		el("a", 1, 1),
		&Particle{Min: 1, Max: 1, Leaf: &Leaf{Wildcard: &Wildcard{Kind: WildOther, TargetNS: "urn:t"}}},
	)
	g2, _ := CompileGlushkov(q)
	if err := g2.CheckUPA(); err != nil {
		t.Errorf("##other vs local element flagged: %v", err)
	}
}

func TestPrematureEndError(t *testing.T) {
	g, _ := CompileGlushkov(purchaseOrderModel())
	_, err := g.Match(nil)
	if err == nil || !err.Premature {
		t.Fatalf("empty input: %+v", err)
	}
	if !strings.Contains(err.Error(), "shipTo") {
		t.Errorf("expected list should name shipTo: %v", err)
	}
}

func TestMatchErrorStringForms(t *testing.T) {
	e1 := &MatchError{Index: 2, Got: Symbol{Local: "x"}, Expected: []string{"a", "b"}}
	if !strings.Contains(e1.Error(), "unexpected element x") || !strings.Contains(e1.Error(), "a, b") {
		t.Errorf("mismatch form: %v", e1)
	}
	e2 := &MatchError{Index: 3, Premature: true, Expected: []string{"c"}}
	if !strings.Contains(e2.Error(), "content ended") {
		t.Errorf("premature form: %v", e2)
	}
	e3 := &MatchError{Index: 0, Premature: true}
	if !strings.Contains(e3.Error(), "nothing") {
		t.Errorf("empty expected form: %v", e3)
	}
}

func TestSymbolString(t *testing.T) {
	if (Symbol{Local: "a"}).String() != "a" {
		t.Error("plain symbol")
	}
	if (Symbol{Space: "urn:x", Local: "a"}).String() != "{urn:x}a" {
		t.Error("qualified symbol")
	}
}

func TestNamespacedMatching(t *testing.T) {
	p := NewSequence(1, 1,
		NewElementLeaf(1, 1, Symbol{Space: "urn:a", Local: "x"}, nil))
	for name, m := range matchers(t, p) {
		if _, err := m.Match([]Symbol{{Space: "urn:a", Local: "x"}}); err != nil {
			t.Errorf("%s: qualified match: %v", name, err)
		}
		if _, err := m.Match([]Symbol{{Local: "x"}}); err == nil {
			t.Errorf("%s: unqualified symbol should not match a qualified leaf", name)
		}
	}
}

func TestGroupKindString(t *testing.T) {
	if Sequence.String() != "sequence" || Choice.String() != "choice" || All.String() != "all" {
		t.Error("GroupKind names")
	}
}

func TestNumPositions(t *testing.T) {
	g, _ := CompileGlushkov(purchaseOrderModel())
	// shipTo, billTo, comment, items = 4 positions.
	if g.NumPositions() != 4 {
		t.Errorf("positions: %d", g.NumPositions())
	}
	// A bounded count is a counter, not copies: a{2,4} has 1 position.
	g2, _ := CompileGlushkov(NewSequence(1, 1, el("a", 2, 4)))
	if g2.NumPositions() != 1 {
		t.Errorf("expanded positions: %d", g2.NumPositions())
	}
}

func TestZeroMaxParticle(t *testing.T) {
	// maxOccurs=0 contributes nothing.
	p := NewSequence(1, 1, el("gone", 0, 0), el("kept", 1, 1))
	for name, m := range matchers(t, p) {
		if _, err := m.Match(syms("kept")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := m.Match(syms("gone kept")); err == nil {
			t.Errorf("%s: maxOccurs=0 element matched", name)
		}
	}
}
