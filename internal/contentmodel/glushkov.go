package contentmodel

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Glushkov is a position automaton over leaf particles, built with the
// Aho–Sethi–Ullman followpos construction: one position per leaf
// occurrence in the content model, whatever its occurrence bounds.
//
// A particle bounded other than 1, ?, * or + is not copied. It becomes a
// counter scope, an all group becomes a member-bitset scope, and each
// follow edge carries the operations on the scopes it leaves, iterates and
// enters (the counter automata of Kilpeläinen & Tuhkanen and of Gelade,
// Gyssens & Martens). A run's state is a set of configurations: a position
// plus the values of the scopes around it. In a plain model, one without
// scopes, a configuration is a bare position.
type Glushkov struct {
	leaves   []*Leaf  // position -> leaf; the start is position len(leaves)
	edges    [][]edge // position -> follow edges; the start's are the first positions
	last     []bool   // position -> may end the content; the start's is nullable
	chains   [][]link // position -> enclosing scopes, outermost first
	slots    []int    // position -> scope values a configuration there holds
	scopes   []scope
	nullable bool
	// dfa is the optional lazy subset construction attached by EnableDFA.
	// It must be set before any Match or Run on the automaton.
	dfa *dfa
	// upaOnce guards upa, the CheckUPA verdict, taken once per automaton.
	upaOnce sync.Once
	upa     error
}

// scope is a counted particle's counter or an all group's member set.
type scope struct {
	all      bool
	min, max int   // counter bounds; an Unbounded counter saturates at min
	nullBody bool  // the counter's body matches empty, so leaving is unguarded
	required []int // all group: the members leaving requires, 64 bits a word
	off      int   // the scope's first value slot in a configuration
}

func (s *scope) width() int {
	if s.all {
		return len(s.required)
	}
	return 1
}

// link is one scope around a position; member is the position's member
// index when the scope is an all group.
type link struct{ scope, member int }

// edge is a follow transition to position to. It stays inside the first
// keep scopes of its source's chain: it leaves the others, innermost first,
// and enters the target's chain past keep. With step set it also iterates
// scope keep-1 (a counter loop) or switches members there (an all group).
type edge struct {
	to   int32
	keep int32
	step bool
}

// maxConfigs caps the configurations a run holds after a step. Dominance
// keeps counters that met their minimum from multiplying, so only nested
// counters still below their minimums can reach it. Distinct
// configurations are distinct positions of the count expansion, so 4,096,
// the position budget that expansion had, lets every model it could
// match run here as before.
const maxConfigs = 4096

type builder struct {
	g     *Glushkov
	chain []link // the scopes around the particle being built
	err   error
}

// info is a subexpression's nullable/firstpos/lastpos triple.
type info struct {
	nullable    bool
	first, last []int
}

// CompileGlushkov builds the position automaton. Its only error is a
// particle whose bounds are invalid: a negative minOccurs, or a maxOccurs
// below it.
func CompileGlushkov(root *Particle) (*Glushkov, error) {
	b := &builder{g: &Glushkov{}}
	in := b.particle(root)
	if b.err != nil {
		return nil, b.err
	}
	g := b.g
	start := g.newPos(nil, nil)
	g.nullable = in.nullable
	g.last = make([]bool, len(g.edges))
	for _, p := range in.last {
		g.last[p] = true
	}
	g.last[start] = in.nullable
	b.link([]int{start}, in.first, 0, false)
	seen := map[edge]bool{}
	for p, es := range g.edges {
		out := es[:0]
		for _, e := range es {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
		g.edges[p] = out
		clear(seen)
	}
	return g, nil
}

// newPos adds a position for l inside chain (the start when l is nil).
func (g *Glushkov) newPos(l *Leaf, chain []link) int {
	if l != nil {
		g.leaves = append(g.leaves, l)
	}
	g.edges = append(g.edges, nil)
	g.chains = append(g.chains, slices.Clone(chain))
	g.slots = append(g.slots, g.width(chain))
	return len(g.edges) - 1
}

// width is the number of value slots the scopes of chain hold.
func (g *Glushkov) width(chain []link) int {
	if len(chain) == 0 {
		return 0
	}
	s := &g.scopes[chain[len(chain)-1].scope]
	return s.off + s.width()
}

// link adds an edge from every position in from to every one in to.
func (b *builder) link(from, to []int, keep int, step bool) {
	for _, p := range from {
		for _, q := range to {
			b.g.edges[p] = append(b.g.edges[p], edge{to: int32(q), keep: int32(keep), step: step})
		}
	}
}

// push opens a scope around the particles built until the matching pop.
func (b *builder) push(s scope) {
	s.off = b.g.width(b.chain)
	b.g.scopes = append(b.g.scopes, s)
	b.chain = append(b.chain, link{scope: len(b.g.scopes) - 1})
}

func (b *builder) pop() *scope {
	s := &b.g.scopes[b.chain[len(b.chain)-1].scope]
	b.chain = b.chain[:len(b.chain)-1]
	return s
}

func (b *builder) particle(p *Particle) info {
	if p != nil && (p.Min < 0 || p.Max < Unbounded || (p.Max != Unbounded && p.Max < p.Min)) {
		b.err = fmt.Errorf("contentmodel: invalid occurrence bounds {%d,%d}", p.Min, p.Max)
	}
	if b.err != nil || p == nil || (p.Leaf == nil && p.Group == nil) || p.Max == 0 {
		return info{nullable: true}
	}
	if p.Min <= 1 && (p.Max == 1 || p.Max == Unbounded) { // 1, ?, * and +
		in := b.term(p)
		if p.Max == Unbounded {
			b.link(in.last, in.first, len(b.chain), false)
		}
		in.nullable = in.nullable || p.Min == 0
		return in
	}
	b.push(scope{min: p.Min, max: p.Max})
	in := b.term(p)
	b.link(in.last, in.first, len(b.chain), true)
	b.pop().nullBody = in.nullable
	in.nullable = in.nullable || p.Min == 0
	return in
}

func (b *builder) term(p *Particle) info {
	if p.Leaf != nil {
		q := b.g.newPos(p.Leaf, b.chain)
		return info{first: []int{q}, last: []int{q}}
	}
	kids := p.Group.Children
	out := info{nullable: p.Group.Kind != Choice || len(kids) == 0}
	switch {
	case p.Group.Kind == Sequence:
		for _, c := range kids {
			in := b.particle(c)
			b.link(out.last, in.first, len(b.chain), false)
			if out.nullable {
				out.first = append(out.first, in.first...)
			}
			if in.nullable {
				out.last = append(out.last, in.last...)
			} else {
				out.last = in.last
			}
			out.nullable = out.nullable && in.nullable
		}
	case p.Group.Kind == Choice || len(kids) == 0:
		for _, c := range kids {
			in := b.particle(c)
			out.nullable = out.nullable || in.nullable
			out.first = append(out.first, in.first...)
			out.last = append(out.last, in.last...)
		}
	default: // All: each member once, in any order
		b.push(scope{all: true, required: make([]int, (len(kids)+63)/64)})
		ins := make([]info, len(kids))
		for j, c := range kids {
			b.chain[len(b.chain)-1].member = j
			ins[j] = b.particle(c)
			out.nullable = out.nullable && ins[j].nullable
			out.first = append(out.first, ins[j].first...)
			out.last = append(out.last, ins[j].last...)
		}
		for i := range ins {
			for j := range ins {
				if i != j {
					b.link(ins[i].last, ins[j].first, len(b.chain), true)
				}
			}
		}
		s := b.pop()
		for j, in := range ins {
			if !in.nullable {
				s.required[j/64] |= 1 << (j % 64)
			}
		}
	}
	return out
}

// has reports whether bit j of a member bitset is set.
func has(words []int, j int) bool { return words[j/64]&(1<<(j%64)) != 0 }

// start is the virtual position a run begins at.
func (g *Glushkov) start() int { return len(g.leaves) }

// exits reports whether a configuration with scope values vals may leave
// the scope of link l.
func (g *Glushkov) exits(l link, vals []int) bool {
	s := &g.scopes[l.scope]
	if !s.all {
		return s.nullBody || vals[s.off] >= s.min
	}
	for w, req := range s.required {
		if vals[s.off+w]&req != req {
			return false
		}
	}
	return true
}

// apply takes edge e out of the configuration (p, vals) and appends the
// target configuration to out. When a guard fails it returns out unchanged
// and false.
func (g *Glushkov) apply(p int, vals []int, e edge, out []int) ([]int, bool) {
	from, to := g.chains[p], g.chains[e.to]
	for k := len(from) - 1; k >= int(e.keep); k-- {
		if !g.exits(from[k], vals) {
			return out, false
		}
	}
	n := len(out)
	out = append(out, int(e.to))
	out = append(out, vals[:g.width(from[:e.keep])]...)
	if e.step {
		s := &g.scopes[from[e.keep-1].scope]
		v := out[n+1+s.off:]
		switch j := to[e.keep-1].member; {
		case s.all && has(v, j), !s.all && s.max != Unbounded && v[0] >= s.max:
			return out[:n], false
		case s.all:
			v[j/64] |= 1 << (j % 64)
		case s.max != Unbounded || v[0] < s.min:
			v[0]++
		}
	}
	for _, l := range to[e.keep:] {
		if s := &g.scopes[l.scope]; s.all {
			for w := range s.required {
				bits := 0
				if w == l.member/64 {
					bits = 1 << (l.member % 64)
				}
				out = append(out, bits)
			}
		} else {
			out = append(out, 1)
		}
	}
	return out, true
}

// accepts reports whether the configuration (p, vals) may end the content:
// p is a last position and every scope around it may be left.
func (g *Glushkov) accepts(p int, vals []int) bool {
	if !g.last[p] {
		return false
	}
	for _, l := range g.chains[p] {
		if !g.exits(l, vals) {
			return false
		}
	}
	return true
}

// configs calls f for each configuration of a set, stopping when f
// returns false.
func (g *Glushkov) configs(set []int, f func(p int, vals []int) bool) {
	for i := 0; i < len(set); i += 1 + g.slots[set[i]] {
		if !f(set[i], set[i+1:i+1+g.slots[set[i]]]) {
			return
		}
	}
}

// acceptSet reports whether some configuration of the set may end the
// content.
func (g *Glushkov) acceptSet(set []int) bool {
	ok := false
	g.configs(set, func(p int, vals []int) bool {
		ok = g.accepts(p, vals)
		return !ok
	})
	return ok
}

// step advances the configuration set cur over one symbol: it takes every
// edge out of cur whose target leaf accepts sym — or, with mask set, whose
// target mask marks — and whose guards pass. It returns the successors in
// canonical form, reusing out's storage, and the leaf of the first; over
// reports more than maxConfigs successors, and then next is empty.
func (g *Glushkov) step(cur []int, sym Symbol, mask []bool, out []int) (next []int, leaf *Leaf, over bool) {
	out = out[:0]
	ok := true
	for i := 0; i < len(cur); i += 1 + g.slots[cur[i]] {
		p, vals := cur[i], cur[i+1:i+1+g.slots[cur[i]]]
		for _, e := range g.edges[p] {
			if mask != nil && !mask[e.to] || mask == nil && !g.leaves[e.to].Accepts(sym) {
				continue
			}
			if len(g.scopes) == 0 { // a plain model: bare positions, no guards
				out = append(out, int(e.to))
			} else if out, ok = g.apply(p, vals, e, out); !ok {
				continue
			}
			if leaf == nil {
				leaf = g.leaves[e.to]
			}
		}
	}
	next, over = g.canon(out)
	return next, leaf, over
}

// canon sorts a configuration set and drops duplicate and dominated
// configurations. A configuration dominates another at the same position
// with the same member bits when every counter where they differ has met
// its minimum in both and is no larger in the first: the first can do all
// the second can. That keeps (a{1,1000}){1,1000} at a few configurations.
func (g *Glushkov) canon(set []int) ([]int, bool) {
	if len(set) == 0 || len(set) == 1+g.slots[set[0]] {
		return set, false
	}
	var recs [][]int
	for i := 0; i < len(set); i += 1 + g.slots[set[i]] {
		recs = append(recs, set[i:i+1+g.slots[set[i]]])
	}
	// Sorting by part first puts the configurations that may dominate one
	// another side by side, each dominator before what it dominates.
	slices.SortFunc(recs, func(a, b []int) int {
		if c := g.part(a, b); c != 0 {
			return c
		}
		return slices.Compare(a, b)
	})
	kept := recs[:0]
	for _, r := range recs {
		dominated := false
		for k := len(kept) - 1; k >= 0 && !dominated && g.part(kept[k], r) == 0; k-- {
			dominated = true
			for i, v := range kept[k] {
				dominated = dominated && v <= r[i]
			}
		}
		if !dominated {
			kept = append(kept, r)
		}
	}
	if len(kept) > maxConfigs {
		return set[:0], true
	}
	next := make([]int, 0, len(set))
	for _, r := range kept {
		next = append(next, r...)
	}
	return next, false
}

// part orders configurations by what dominance cannot look past: the
// position, the member bits, and the counters still below their minimums.
// Two configurations can dominate one another only within one part.
func (g *Glushkov) part(a, b []int) int {
	if a[0] != b[0] {
		return cmp.Compare(a[0], b[0])
	}
	for _, l := range g.chains[a[0]] {
		s := &g.scopes[l.scope]
		for i := 1 + s.off; i < 1+s.off+s.width(); i++ {
			x, y := a[i], b[i]
			if !s.all { // a counter that met its minimum reads -1
				if x >= s.min {
					x = -1
				}
				if y >= s.min {
					y = -1
				}
			}
			if x != y {
				return cmp.Compare(x, y)
			}
		}
	}
	return 0
}

// expectedLabels lists the leaves an edge out of the set may reach next,
// plus "end of content" when orEnd is set or nothing may follow.
func (g *Glushkov) expectedLabels(set []int, orEnd bool) []string {
	var out []string
	var scratch []int
	g.configs(set, func(p int, vals []int) bool {
		for _, e := range g.edges[p] {
			var ok bool
			if scratch, ok = g.apply(p, vals, e, scratch[:0]); ok {
				out = append(out, g.leaves[e.to].label())
			}
		}
		return true
	})
	if orEnd || len(out) == 0 {
		out = append(out, "end of content")
	}
	return dedupStrings(out)
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
//
// A Run on the DFA is a few words: the stream validator holds one per open
// element, inline in its frame. The NFA stepper's configuration sets live
// out of line, allocated when the run first steps the NFA and kept by
// Reset.
type Run struct {
	g   *Glushkov
	d   *dfa     // non-nil while stepping the lazy DFA
	ds  *dstate  // current DFA state
	nfa *nfaSets // NFA stepper state; nil until the run first needs it
	n   int      // symbols consumed

	memoSym  Symbol // 1-entry symbol->class memo (hot for runs of one child name)
	memoCls  int32
	memoOK   bool
	forceNFA bool // StartNFA: never re-attach the DFA on Reset
	failed   bool // a Step/End reported an error; Reset required before reuse
	budget   int  // DFA states this run may grow the shared DFA to; <= 0: DefaultDFABudget
}

// nfaSets is a Run's NFA stepper state.
type nfaSets struct {
	cfgs []int // configuration set after the consumed prefix
	buf  []int // scratch ping-ponged with cfgs
}

// sets returns the run's NFA state, allocating it on first use.
func (r *Run) sets() *nfaSets {
	if r.nfa == nil {
		r.nfa = new(nfaSets)
	}
	return r.nfa
}

// Start begins an incremental match, on the lazy DFA when one is attached.
func (g *Glushkov) Start() *Run {
	r := &Run{}
	r.Reset(g)
	return r
}

// StartNFA begins an incremental match on the NFA stepper even when a DFA
// is attached. Differential tests and benchmarks use it to compare the two
// executors over one compiled automaton.
func (g *Glushkov) StartNFA() *Run {
	r := &Run{forceNFA: true}
	r.Reset(g)
	return r
}

// ResetLimit re-arms the run like Reset under its own DFA policy: with nfa
// set it steps the NFA as StartNFA does; otherwise it may grow g's shared
// DFA to budget states (<= 0 selects DefaultDFABudget) before it falls
// back to the NFA from its current configuration set. The policy holds
// for later Resets too.
func (r *Run) ResetLimit(g *Glushkov, nfa bool, budget int) {
	r.forceNFA, r.budget = nfa, budget
	r.Reset(g)
}

// Reset re-arms the run for a new sequence against g, reusing its
// internal buffers. Equivalent to replacing the Run with g.Start()
// (or g.StartNFA(), for runs started that way).
func (r *Run) Reset(g *Glushkov) {
	r.g = g
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
	} else {
		r.ds = nil
		ns := r.sets()
		ns.cfgs = append(ns.cfgs[:0], g.start())
	}
}

// Forget drops the symbol the run memoized, keeping its buffers: a pooled
// run then holds nothing of the input it stepped. Reset re-arms it.
func (r *Run) Forget() { r.memoSym, r.memoOK = Symbol{}, false }

// Step feeds the next child symbol. On acceptance it returns the leaf
// particle the child matched (the same assignment Match reports); on
// rejection, the same MatchError Match would report at this index. After
// an error the Run is dead: stepping it again panics until Reset.
func (r *Run) Step(sym Symbol) (*Leaf, *MatchError) { return r.StepID(sym, -1) }

// StepID is Step for a symbol whose ID in the interner the automaton's DFA
// was enabled with is id, or -1 when unknown. A known ID indexes the DFA's
// alphabet directly, without hashing the name. The ID must come from that
// interner: a wrong one steps the wrong class.
func (r *Run) StepID(sym Symbol, id int32) (*Leaf, *MatchError) {
	if r.failed {
		panic("contentmodel: Run reused after an error without Reset")
	}
	if r.d != nil {
		leaf, err, ok := r.stepDFA(sym, id)
		if ok {
			return leaf, err
		}
		// State budget overflowed: the run has been reseeded onto the
		// NFA stepper from the current configuration set; fall through.
	}
	g, ns := r.g, r.nfa
	next, leaf, over := g.step(ns.cfgs, sym, nil, ns.buf)
	if leaf == nil || over {
		r.failed = true
		if over {
			return nil, &MatchError{Index: r.n, Got: sym, Cause: fmt.Sprintf("content model too ambiguous: more than %d counter configurations", maxConfigs)}
		}
		return nil, &MatchError{Index: r.n, Got: sym, Expected: g.expectedLabels(ns.cfgs, r.n == 0 && g.nullable)}
	}
	ns.cfgs, ns.buf = next, ns.cfgs
	r.n++
	return leaf, nil
}

// Admits reports whether Step would accept sym next, without stepping: a
// caller choosing the next child among several tries each on one run.
func (r *Run) Admits(sym Symbol) bool {
	ns := r.sets()
	cfgs := ns.cfgs
	if r.d != nil {
		cfgs = r.ds.cfgs
	}
	g := r.g
	ok := false
	g.configs(cfgs, func(p int, vals []int) bool {
		for _, e := range g.edges[p] {
			if g.leaves[e.to].Accepts(sym) {
				if ns.buf, ok = g.apply(p, vals, e, ns.buf[:0]); ok {
					return false
				}
			}
		}
		return true
	})
	return ok
}

// stepDFA advances the lazy DFA one symbol. ok=false means the run's state
// budget overflowed before the needed transition was memoized: the Run has
// been reseeded onto the NFA stepper from the current configuration set
// and the caller must retry the symbol on the NFA path.
func (r *Run) stepDFA(sym Symbol, id int32) (*Leaf, *MatchError, bool) {
	d := r.d
	cls := d.namedClass(id)
	if cls < 0 {
		if r.memoOK && sym == r.memoSym {
			cls = r.memoCls
		} else {
			cls = d.classOf(sym, id)
			r.memoSym, r.memoCls, r.memoOK = sym, cls, true
		}
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
		return nil, &MatchError{Index: r.n, Got: sym, Expected: d.g.expectedLabels(st.cfgs, r.n == 0 && d.g.nullable)}, true
	}
	r.ds = next
	r.n++
	return leaf, nil, true
}

// fallbackNFA reseeds the run onto the NFA stepper from a DFA state's
// configuration set.
func (r *Run) fallbackNFA(st *dstate) {
	r.d = nil
	r.ds = nil
	r.memoOK = false
	ns := r.sets()
	ns.cfgs = append(ns.cfgs[:0], st.cfgs...)
}

// End reports whether the sequence consumed so far is a complete match:
// nil on acceptance, otherwise the premature-end MatchError Match would
// report for the same sequence. After an error the Run is dead until
// Reset, like Step.
func (r *Run) End() *MatchError {
	if r.failed {
		panic("contentmodel: Run reused after an error without Reset")
	}
	var cfgs []int
	if r.d != nil {
		if r.ds.accept {
			return nil
		}
		cfgs = r.ds.cfgs
	} else if cfgs = r.nfa.cfgs; r.g.acceptSet(cfgs) {
		return nil
	}
	r.failed = true
	return &MatchError{Index: r.n, Premature: true, Expected: r.g.expectedLabels(cfgs, false)}
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
// Occurrences of one leaf do not conflict. Two edges out of a position
// compete when their guards can hold at once; guards are decided per
// scope over classes — a counter below its minimum, between its bounds,
// at its maximum; a member bit set or clear — rather than over counter
// values, and every combination of classes is reachable at the position.
// The verdict is taken once per automaton and is safe to ask for
// concurrently.
func (g *Glushkov) CheckUPA() error {
	g.upaOnce.Do(func() { g.upa = g.checkUPA() })
	return g.upa
}

func (g *Glushkov) checkUPA() error {
	for i := range g.edges {
		p := (i + g.start()) % len(g.edges) // the start first, then every position
		es := g.edges[p]
		for x := range es {
			for y := x + 1; y < len(es); y++ {
				a, b := g.leaves[es[x].to], g.leaves[es[y].to]
				if a != b && a.overlaps(b) && g.compatible(p, es[x], es[y]) {
					return &UPAViolation{A: a.label(), B: b.label()}
				}
			}
		}
	}
	return nil
}

// compatible reports whether the guards of two edges out of p can hold in
// one configuration at p.
func (g *Glushkov) compatible(p int, e, f edge) bool {
	// op classifies what an edge does to the scope at chain index k:
	// 1 leaves it, 2 iterates it or switches members, 0 neither.
	op := func(e edge, k int) int {
		switch {
		case k >= int(e.keep):
			return 1
		case k == int(e.keep)-1 && e.step:
			return 2
		}
		return 0
	}
	for k, l := range g.chains[p] {
		s := &g.scopes[l.scope]
		oe, of := op(e, k), op(f, k)
		if s.all {
			// Leaving needs every required bit, a member switch its
			// member's bit clear.
			if oe == 1 && of == 2 && has(s.required, g.chains[f.to][k].member) ||
				of == 1 && oe == 2 && has(s.required, g.chains[e.to][k].member) {
				return false
			}
			continue
		}
		lo, hi := 1, s.max
		if s.max == Unbounded {
			hi = s.min // saturated
		}
		for _, o := range []int{oe, of} {
			switch {
			case o == 1 && !s.nullBody:
				lo = max(lo, s.min)
			case o == 2 && s.max != Unbounded:
				hi = min(hi, s.max-1)
			}
		}
		if lo > hi {
			return false
		}
	}
	return true
}
