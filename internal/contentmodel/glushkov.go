package contentmodel

import (
	"fmt"
	"sync"
)

// Glushkov is a position automaton over leaf particles, built with the
// Aho–Sethi–Ullman followpos construction. Each position is one occurrence
// of a leaf in the (count-expanded) content model.
type Glushkov struct {
	leaves   []*Leaf // position -> leaf
	first    []int
	last     map[int]bool
	follow   [][]int
	nullable bool
	// dfa is the optional lazy subset construction attached by EnableDFA.
	// It must be set before any Match or Run on the automaton.
	dfa *dfa
	// upaOnce guards upa, the CheckUPA verdict, taken once per automaton.
	upaOnce sync.Once
	upa     error
}

// ErrTooComplex is returned when count expansion would exceed the position
// budget (callers fall back to the interpreter).
var ErrTooComplex = fmt.Errorf("contentmodel: content model too large for position automaton")

// expansion limits for the Glushkov construction.
const (
	maxPositions        = 4096
	allPermutationLimit = 4
)

// gnode is the internal expanded regex tree.
type gnode interface{ isG() }

type gleaf struct{ pos int }
type gseq struct{ items []gnode }
type galt struct{ alts []gnode }
type gstar struct{ sub gnode }
type gempty struct{}

func (gleaf) isG()  {}
func (gseq) isG()   {}
func (galt) isG()   {}
func (gstar) isG()  {}
func (gempty) isG() {}

type gbuilder struct {
	leaves []*Leaf
}

func (b *gbuilder) newLeaf(l *Leaf) (gnode, error) {
	if len(b.leaves) >= maxPositions {
		return nil, ErrTooComplex
	}
	b.leaves = append(b.leaves, l)
	return gleaf{pos: len(b.leaves) - 1}, nil
}

// convert expands a particle into the internal tree, allocating fresh
// positions per occurrence copy.
func (b *gbuilder) convert(p *Particle) (gnode, error) {
	if p == nil || (p.Leaf == nil && p.Group == nil) || p.Max == 0 {
		return gempty{}, nil
	}
	one := func() (gnode, error) {
		if p.Leaf != nil {
			return b.newLeaf(p.Leaf)
		}
		return b.convertGroup(p.Group)
	}
	min, max := p.Min, p.Max
	if min > maxPositions {
		return nil, ErrTooComplex
	}
	var items []gnode
	for i := 0; i < min; i++ {
		n, err := one()
		if err != nil {
			return nil, err
		}
		items = append(items, n)
	}
	switch {
	case max == Unbounded:
		n, err := one()
		if err != nil {
			return nil, err
		}
		items = append(items, gstar{sub: n})
	case max > min:
		if max-min > maxPositions {
			return nil, ErrTooComplex
		}
		for i := min; i < max; i++ {
			n, err := one()
			if err != nil {
				return nil, err
			}
			items = append(items, galt{alts: []gnode{n, gempty{}}})
		}
	}
	switch len(items) {
	case 0:
		return gempty{}, nil
	case 1:
		return items[0], nil
	default:
		return gseq{items: items}, nil
	}
}

func (b *gbuilder) convertGroup(g *Group) (gnode, error) {
	switch g.Kind {
	case Sequence:
		var items []gnode
		for _, c := range g.Children {
			n, err := b.convert(c)
			if err != nil {
				return nil, err
			}
			items = append(items, n)
		}
		if len(items) == 0 {
			return gempty{}, nil
		}
		return gseq{items: items}, nil
	case Choice:
		var alts []gnode
		for _, c := range g.Children {
			n, err := b.convert(c)
			if err != nil {
				return nil, err
			}
			alts = append(alts, n)
		}
		if len(alts) == 0 {
			return gempty{}, nil
		}
		return galt{alts: alts}, nil
	default: // All: expand to a choice of permutations for small groups
		n := len(g.Children)
		if n > allPermutationLimit {
			return nil, ErrTooComplex
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var alts []gnode
		var build func(depth int) error
		used := make([]bool, n)
		order := make([]int, 0, n)
		build = func(depth int) error {
			if depth == n {
				var items []gnode
				for _, idx := range order {
					cn, err := b.convert(g.Children[idx])
					if err != nil {
						return err
					}
					items = append(items, cn)
				}
				alts = append(alts, gseq{items: items})
				return nil
			}
			for i := 0; i < n; i++ {
				if used[i] {
					continue
				}
				used[i] = true
				order = append(order, i)
				if err := build(depth + 1); err != nil {
					return err
				}
				order = order[:len(order)-1]
				used[i] = false
			}
			return nil
		}
		if n == 0 {
			return gempty{}, nil
		}
		if err := build(0); err != nil {
			return nil, err
		}
		return galt{alts: alts}, nil
	}
}

// ginfo is the nullable/firstpos/lastpos triple.
type ginfo struct {
	nullable bool
	first    []int
	last     []int
}

// analyze computes nullable/first/last and fills follow.
func analyze(n gnode, follow [][]int) ginfo {
	switch x := n.(type) {
	case gempty:
		return ginfo{nullable: true}
	case gleaf:
		return ginfo{first: []int{x.pos}, last: []int{x.pos}}
	case gseq:
		cur := analyze(x.items[0], follow)
		for _, item := range x.items[1:] {
			next := analyze(item, follow)
			for _, p := range cur.last {
				follow[p] = append(follow[p], next.first...)
			}
			merged := ginfo{nullable: cur.nullable && next.nullable}
			if cur.nullable {
				merged.first = append(append([]int{}, cur.first...), next.first...)
			} else {
				merged.first = cur.first
			}
			if next.nullable {
				merged.last = append(append([]int{}, next.last...), cur.last...)
			} else {
				merged.last = next.last
			}
			cur = merged
		}
		return cur
	case galt:
		out := ginfo{}
		for _, alt := range x.alts {
			ai := analyze(alt, follow)
			out.nullable = out.nullable || ai.nullable
			out.first = append(out.first, ai.first...)
			out.last = append(out.last, ai.last...)
		}
		return out
	case gstar:
		inner := analyze(x.sub, follow)
		for _, p := range inner.last {
			follow[p] = append(follow[p], inner.first...)
		}
		return ginfo{nullable: true, first: inner.first, last: inner.last}
	default:
		panic("contentmodel: unknown gnode")
	}
}

// CompileGlushkov builds the position automaton. It returns ErrTooComplex
// for content models whose expansion exceeds the position budget; callers
// should then use NewInterp.
func CompileGlushkov(root *Particle) (*Glushkov, error) {
	b := &gbuilder{}
	tree, err := b.convert(root)
	if err != nil {
		return nil, err
	}
	follow := make([][]int, len(b.leaves))
	info := analyze(tree, follow)
	g := &Glushkov{
		leaves:   b.leaves,
		first:    dedupInts(info.first),
		follow:   follow,
		nullable: info.nullable,
		last:     map[int]bool{},
	}
	for i := range follow {
		g.follow[i] = dedupInts(follow[i])
	}
	for _, p := range info.last {
		g.last[p] = true
	}
	return g, nil
}

func dedupInts(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	seen := map[int]bool{}
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// NumPositions returns the number of automaton positions (for tests).
func (g *Glushkov) NumPositions() int { return len(g.leaves) }

// Match runs the automaton over the child-name sequence. On success it
// returns the leaf each child matched; on failure, a MatchError. It is a
// batch wrapper around the incremental Run stepper, so the two APIs can
// never disagree on a verdict.
func (g *Glushkov) Match(input []Symbol) ([]*Leaf, *MatchError) { return g.Start().Match(input) }

// Match steps the run over the rest of a child-name sequence and checks
// its end, reporting like Glushkov.Match. Started or reset just before, it
// is Glushkov.Match under the run's own DFA policy.
func (r *Run) Match(input []Symbol) ([]*Leaf, *MatchError) {
	var assigned []*Leaf
	if len(input) > 0 {
		assigned = make([]*Leaf, len(input))
	}
	for i, sym := range input {
		leaf, err := r.Step(sym)
		if err != nil {
			return nil, err
		}
		assigned[i] = leaf
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return assigned, nil
}

// Run is one incremental match in progress: the automaton state after
// some prefix of a child-name sequence. It is the streaming counterpart
// of Match — the validator's streaming path holds one Run per open
// element, stepping it as child start-tags arrive, so validity is decided
// in O(depth) memory without materializing the child list.
//
// A Run references its (immutable, shared) Glushkov automaton but owns
// all mutable state, so any number of Runs may step concurrently over
// one compiled automaton.
//
// A Run is single-owner: it must not be stepped from two goroutines or
// interleaved between two match attempts. After Step or End returns a
// MatchError the Run is dead — further Step/End calls panic — until Reset
// re-arms it. The stream validator's pooled frames rely on this guard to
// surface accidental sharing of one Run between frames.
type Run struct {
	g       *Glushkov
	cand    []int  // positions that may match the next symbol
	matched []int  // positions matched by the previous symbol
	next    []int  // scratch buffer ping-ponged with cand
	spare   []int  // second owned buffer, parked while cand aliases g.first
	mark    []bool // per-position dedup scratch, cleared after each Step
	ownCand bool   // cand is an owned buffer, not an alias of g.first
	n       int    // symbols consumed

	d        *dfa    // non-nil while stepping the lazy DFA
	ds       *dstate // current DFA state
	memoSym  Symbol  // 1-entry symbol->class memo (hot for runs of one child name)
	memoCls  int32
	memoOK   bool
	forceNFA bool // StartNFA: never re-attach the DFA on Reset
	budget   int  // DFA states this run may grow the shared DFA to; <= 0: DefaultDFABudget
	failed   bool // a Step/End reported an error; Reset required before reuse
}

// Start begins an incremental match, on the lazy DFA when one is attached.
func (g *Glushkov) Start() *Run {
	if d := g.dfa; d != nil {
		return &Run{g: g, d: d, ds: d.start}
	}
	return &Run{g: g, cand: g.first}
}

// StartNFA begins an incremental match on the NFA stepper even when a DFA
// is attached. Differential tests and benchmarks use it to compare the two
// executors over one compiled automaton.
func (g *Glushkov) StartNFA() *Run { return &Run{g: g, cand: g.first, forceNFA: true} }

// ResetLimit re-arms the run like Reset under its own DFA policy: with nfa
// set it steps the NFA as StartNFA does; otherwise it may grow g's shared
// DFA to budget states (<= 0 selects DefaultDFABudget) before it falls
// back to the NFA from its current position set. The policy holds for
// later Resets too.
func (r *Run) ResetLimit(g *Glushkov, nfa bool, budget int) {
	r.forceNFA, r.budget = nfa, budget
	r.Reset(g)
}

// Reset re-arms the run for a new sequence against g, reusing its
// internal buffers. Equivalent to replacing the Run with g.Start()
// (or g.StartNFA(), for runs started that way).
func (r *Run) Reset(g *Glushkov) {
	r.g = g
	if r.ownCand {
		r.spare = r.cand
	}
	r.ownCand = false
	r.matched = r.matched[:0]
	r.n = 0
	r.failed = false
	d := g.dfa
	if r.forceNFA {
		d = nil
	}
	if r.d != d {
		r.d = d
		r.memoOK = false
	}
	if d != nil {
		r.ds = d.start
		r.cand = nil
	} else {
		r.ds = nil
		r.cand = g.first
	}
}

// Step feeds the next child symbol. On acceptance it returns the leaf
// particle the child matched (the same assignment Match reports); on
// rejection, the same MatchError Match would report at this index. After
// an error the Run is dead: stepping it again panics until Reset.
func (r *Run) Step(sym Symbol) (*Leaf, *MatchError) {
	if r.failed {
		panic("contentmodel: Run reused after an error without Reset")
	}
	if r.d != nil {
		leaf, err, ok := r.stepDFA(sym)
		if ok {
			return leaf, err
		}
		// State budget overflowed: the run has been reseeded onto the
		// NFA stepper from the current position set; fall through.
	}
	g := r.g
	r.matched = r.matched[:0]
	var leaf *Leaf
	for _, p := range r.cand {
		if g.leaves[p].Accepts(sym) {
			if leaf == nil {
				leaf = g.leaves[p]
			}
			r.matched = append(r.matched, p)
		}
	}
	if leaf == nil {
		r.failed = true
		return nil, &MatchError{Index: r.n, Got: sym, Expected: g.expectedLabels(r.cand, r.n == 0 && g.nullable)}
	}
	if len(r.mark) < len(g.leaves) {
		r.mark = make([]bool, len(g.leaves))
	}
	r.next = r.next[:0]
	for _, p := range r.matched {
		for _, q := range g.follow[p] {
			if !r.mark[q] {
				r.mark[q] = true
				r.next = append(r.next, q)
			}
		}
	}
	for _, q := range r.next {
		r.mark[q] = false
	}
	// Ping-pong the buffers. On the first step cand aliases g.first,
	// which must never be written through; the parked spare buffer takes
	// its place in the rotation.
	old := r.cand
	if !r.ownCand {
		old = r.spare
	}
	r.cand, r.next, r.ownCand = r.next, old[:0], true
	r.n++
	return leaf, nil
}

// stepDFA advances the lazy DFA one symbol. ok=false means the run's state
// budget overflowed before the needed transition was memoized: the Run has
// been reseeded onto the NFA stepper from the current position set and the
// caller must retry the symbol on the NFA path.
func (r *Run) stepDFA(sym Symbol) (*Leaf, *MatchError, bool) {
	d := r.d
	var cls int32
	if r.memoOK && sym == r.memoSym {
		cls = r.memoCls
	} else {
		cls = d.classOf(sym)
		r.memoSym, r.memoCls, r.memoOK = sym, cls, true
	}
	st := r.ds
	tr := &st.trans[cls]
	next := tr.state.Load()
	var leaf *Leaf
	if next != nil {
		leaf = tr.leaf
	} else {
		var ok bool
		budget := r.budget
		if budget <= 0 {
			budget = DefaultDFABudget
		}
		next, leaf, ok = d.buildTrans(st, cls, budget)
		if !ok {
			r.fallbackNFA(st)
			return nil, nil, false
		}
	}
	if next == dfaReject {
		r.failed = true
		return nil, &MatchError{Index: r.n, Got: sym, Expected: d.g.expectedLabels(st.cand, r.n == 0 && d.g.nullable)}, true
	}
	r.ds = next
	r.n++
	return leaf, nil, true
}

// fallbackNFA reseeds the run onto the NFA stepper from a DFA state's
// position-set snapshot. st.cand belongs to the (shared, immutable) state
// and is aliased exactly like g.first, never written through.
func (r *Run) fallbackNFA(st *dstate) {
	r.d = nil
	r.ds = nil
	r.memoOK = false
	r.cand = st.cand
	r.ownCand = false
	r.matched = append(r.matched[:0], st.matched...)
}

// End reports whether the sequence consumed so far is a complete match:
// nil on acceptance, otherwise the premature-end MatchError Match would
// report for the same sequence. After an error the Run is dead until
// Reset, like Step.
func (r *Run) End() *MatchError {
	if r.failed {
		panic("contentmodel: Run reused after an error without Reset")
	}
	g := r.g
	if r.n == 0 {
		if g.nullable {
			return nil
		}
		r.failed = true
		return &MatchError{Index: 0, Premature: true, Expected: g.expectedLabels(g.first, false)}
	}
	if r.d != nil {
		if r.ds.accept {
			return nil
		}
		r.failed = true
		return &MatchError{Index: r.n, Premature: true, Expected: g.expectedLabels(r.ds.cand, false)}
	}
	// Accept iff a position matched by the final symbol is a last
	// position of the augmented expression.
	for _, p := range r.matched {
		if g.last[p] {
			return nil
		}
	}
	r.failed = true
	return &MatchError{Index: r.n, Premature: true, Expected: g.expectedLabels(r.cand, false)}
}

func (g *Glushkov) expectedLabels(positions []int, orEnd bool) []string {
	var out []string
	for _, p := range positions {
		out = append(out, g.leaves[p].label())
	}
	if orEnd || len(positions) == 0 {
		out = append(out, "end of content")
	}
	return dedupStrings(out)
}

// UPAViolation describes a Unique Particle Attribution conflict.
type UPAViolation struct {
	A, B string // labels of the conflicting particles
}

// Error implements the error interface.
func (v *UPAViolation) Error() string {
	return fmt.Sprintf("content model violates unique particle attribution: %s and %s can match the same element", v.A, v.B)
}

// CheckUPA verifies the Unique Particle Attribution constraint: no two
// distinct particles may compete for the same element at any point.
// Positions expanded from the same schema particle (the same *Leaf) do not
// conflict. The verdict is taken once per automaton and is safe to ask
// for concurrently.
func (g *Glushkov) CheckUPA() error {
	g.upaOnce.Do(func() { g.upa = g.checkUPA() })
	return g.upa
}

func (g *Glushkov) checkUPA() error {
	check := func(set []int) error {
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				a, b := g.leaves[set[i]], g.leaves[set[j]]
				if a == b {
					continue
				}
				if a.overlaps(b) {
					return &UPAViolation{A: a.label(), B: b.label()}
				}
			}
		}
		return nil
	}
	if err := check(g.first); err != nil {
		return err
	}
	for _, f := range g.follow {
		if err := check(f); err != nil {
			return err
		}
	}
	return nil
}
