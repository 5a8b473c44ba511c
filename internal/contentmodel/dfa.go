package contentmodel

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultDFABudget is the default number of states a run may grow an
// automaton's shared DFA to. A run that needs a state beyond its budget
// falls back to the NFA stepper from the current position set, so
// pathological minOccurs/maxOccurs models stay safe in bounded memory.
const DefaultDFABudget = 4096

// maxDFAWildcards bounds the number of distinct wildcard particles a
// DFA-enabled model may contain: every subset of wildcards that admits a
// namespace is one alphabet class, so k wildcards cost 2^k bucket classes.
const maxDFAWildcards = 4

// maxNamespaceClasses bounds the namespace->bucket-class cache so hostile
// input with unbounded distinct namespaces cannot grow it without limit;
// past the cap the admission mask is recomputed per symbol.
const maxNamespaceClasses = 64

// dfa is a lazy subset construction over one Glushkov automaton. Position
// sets reached during matching are memoized into dstates with one
// transition slot per alphabet class; slots are built on demand under mu
// and published with an atomic store, so steppers never block on a slot
// that is already built.
//
// The alphabet is partitioned into classes: one class per element name the
// model declares (indexed through the shared Interner), plus one "bucket"
// class per subset of wildcards for names the model does not declare —
// every name admitted by the same wildcard subset behaves identically.
type dfa struct {
	g  *Glushkov
	in *Interner

	named    []int32 // global symbol ID -> class, -1 when not named by this model
	nnamed   int
	wilds    []*Leaf // distinct wildcard leaves; bit i of a bucket mask = wilds[i] admits
	nclasses int
	accSets  [][]int // class -> positions accepting that class (ascending)

	start *dstate

	mu      sync.Mutex
	nstates int
	bySet   map[string]*dstate // canonical position-set key -> state
	scratch []bool             // per-position membership scratch, guarded by mu

	nsClass atomic.Value // map[string]int32: namespace -> bucket class, copy-on-write
}

// dstate is one memoized position set. cand and matched keep the order the
// NFA stepper would have produced, so error messages, leaf assignment, and
// mid-run fallback are indistinguishable from never having used the DFA.
type dstate struct {
	cand    []int // positions that may match the next symbol, NFA order
	matched []int // positions matched by the previous symbol (nil in the start state)
	accept  bool  // a matched position is a last position
	trans   []dtrans
}

type dtrans struct {
	state atomic.Pointer[dstate] // nil = unbuilt, dfaReject = no successor
	leaf  *Leaf                  // assignment reported on this transition; written before state
}

// dfaReject marks transitions with no successor.
var dfaReject = &dstate{}

// EnableDFA attaches a lazy DFA to the automaton, using the shared symbol
// interner for transition lookup. It reports whether the DFA was attached:
// models that violate Unique Particle Attribution keep the NFA stepper
// (subset canonicalization is only observation-equivalent when at most one
// particle competes per symbol), as do models with more than
// maxDFAWildcards distinct wildcards. The UPA gate reads the automaton's
// one CheckUPA verdict, so a caller that already checked pays nothing.
//
// EnableDFA must happen before any Match
// or Run on the automaton and be synchronized with them
// (xsd.ComplexType.Matcher calls it inside a sync.Once every caller passes
// through). How far a run may grow the DFA is the run's own budget
// (Run.ResetLimit).
func (g *Glushkov) EnableDFA(in *Interner) bool {
	if g.dfa != nil {
		return true
	}
	if in == nil || g.CheckUPA() != nil {
		return false
	}
	cls := g.buildClasses()
	if len(cls.wilds) > maxDFAWildcards {
		return false
	}
	for _, s := range cls.syms {
		in.Intern(s)
	}
	named := make([]int32, in.Len())
	for i := range named {
		named[i] = -1
	}
	for _, s := range cls.syms {
		named[in.Intern(s)] = cls.seenSym[s]
	}
	d := &dfa{
		g:        g,
		in:       in,
		named:    named,
		nnamed:   len(cls.syms),
		wilds:    cls.wilds,
		nclasses: cls.nclasses,
		accSets:  cls.accSets,
		bySet:    map[string]*dstate{},
		scratch:  make([]bool, len(g.leaves)),
	}
	d.start = &dstate{cand: g.first, accept: g.nullable, trans: make([]dtrans, cls.nclasses)}
	d.nstates = 1
	g.dfa = d
	return true
}

// classes is the alphabet partition shared by the lazy DFA and the eager
// exporter: one class per element name the model declares (first-seen leaf
// order), plus one bucket class per subset of wildcards.
type classes struct {
	syms     []Symbol
	seenSym  map[Symbol]int32
	wilds    []*Leaf
	nclasses int
	accSets  [][]int // class -> positions accepting that class (ascending)
}

// buildClasses partitions the alphabet into the symbol classes EnableDFA
// builds its transition structure from.
func (g *Glushkov) buildClasses() classes {
	var wilds []*Leaf
	seenWild := map[*Leaf]bool{}
	seenSym := map[Symbol]int32{}
	var syms []Symbol
	for _, l := range g.leaves {
		if l.Wildcard != nil {
			if !seenWild[l] {
				seenWild[l] = true
				wilds = append(wilds, l)
			}
			continue
		}
		for _, n := range l.Names {
			if _, ok := seenSym[n]; !ok {
				seenSym[n] = int32(len(syms))
				syms = append(syms, n)
			}
		}
	}
	nclasses := len(syms) + (1 << len(wilds))
	accSets := make([][]int, nclasses)
	for p, l := range g.leaves {
		if l.Wildcard != nil {
			continue
		}
		for _, n := range l.Names {
			c := seenSym[n]
			accSets[c] = append(accSets[c], p)
		}
	}
	// Wildcard positions accept every named symbol whose namespace they
	// admit, and every bucket whose mask includes them.
	for wi, wl := range wilds {
		for p, l := range g.leaves {
			if l != wl {
				continue
			}
			for c, s := range syms {
				if wl.Wildcard.Admits(s.Space) {
					accSets[c] = append(accSets[c], p)
				}
			}
			for mask := 0; mask < 1<<len(wilds); mask++ {
				if mask&(1<<wi) != 0 {
					accSets[len(syms)+mask] = append(accSets[len(syms)+mask], p)
				}
			}
		}
	}
	for c := range accSets {
		sort.Ints(accSets[c])
	}
	return classes{syms: syms, seenSym: seenSym, wilds: wilds, nclasses: nclasses, accSets: accSets}
}

// DFAEnabled reports whether a lazy DFA is attached.
func (g *Glushkov) DFAEnabled() bool { return g.dfa != nil }

// DFAStates returns the number of memoized DFA states built so far.
func (g *Glushkov) DFAStates() int {
	d := g.dfa
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nstates
}

// Alphabet returns the distinct element names the model declares, in
// first-seen order (used by differential tests to generate sequences).
func (g *Glushkov) Alphabet() []Symbol {
	var out []Symbol
	seen := map[Symbol]bool{}
	for _, l := range g.leaves {
		for _, n := range l.Names {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// classOf maps a symbol to its alphabet class. Named symbols resolve
// through the shared interner to an array index; everything else lands in
// the wildcard-admission bucket for its namespace.
func (d *dfa) classOf(sym Symbol) int32 {
	if id, ok := d.in.Lookup(sym); ok && int(id) < len(d.named) {
		if c := d.named[id]; c >= 0 {
			return c
		}
	}
	return d.bucketClass(sym.Space)
}

func (d *dfa) bucketClass(ns string) int32 {
	if m, _ := d.nsClass.Load().(map[string]int32); m != nil {
		if c, ok := m[ns]; ok {
			return c
		}
	}
	var mask int32
	for i, w := range d.wilds {
		if w.Wildcard.Admits(ns) {
			mask |= 1 << i
		}
	}
	c := int32(d.nnamed) + mask
	d.mu.Lock()
	old, _ := d.nsClass.Load().(map[string]int32)
	if len(old) < maxNamespaceClasses {
		next := make(map[string]int32, len(old)+1)
		for k, v := range old {
			next[k] = v
		}
		next[ns] = c
		d.nsClass.Store(next)
	}
	d.mu.Unlock()
	return c
}

// buildTrans fills the (st, cls) transition slot. ok=false means the DFA
// already holds the calling run's budget of states and the successor was
// not memoized; the caller must fall back to NFA stepping from st.
func (d *dfa) buildTrans(st *dstate, cls int32, budget int) (next *dstate, leaf *Leaf, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tr := &st.trans[cls]
	if s := tr.state.Load(); s != nil {
		return s, tr.leaf, true
	}
	acc := d.accSets[cls]
	for _, p := range acc {
		d.scratch[p] = true
	}
	var matched []int
	for _, p := range st.cand {
		if d.scratch[p] {
			if leaf == nil {
				leaf = d.g.leaves[p]
			}
			matched = append(matched, p)
		}
	}
	for _, p := range acc {
		d.scratch[p] = false
	}
	if leaf == nil {
		tr.state.Store(dfaReject)
		return dfaReject, nil, true
	}
	key := setKey(matched)
	next, exists := d.bySet[key]
	if !exists {
		if d.nstates >= budget {
			return nil, nil, false
		}
		next = d.newState(matched)
		d.bySet[key] = next
		d.nstates++
	}
	tr.leaf = leaf
	tr.state.Store(next)
	return next, leaf, true
}

// newState materializes the successor for a matched set, replaying exactly
// the candidate-set computation the NFA stepper performs (follow-set union
// in matched order with keep-first dedup).
func (d *dfa) newState(matched []int) *dstate {
	g := d.g
	var cand []int
	for _, p := range matched {
		for _, q := range g.follow[p] {
			if !d.scratch[q] {
				d.scratch[q] = true
				cand = append(cand, q)
			}
		}
	}
	for _, q := range cand {
		d.scratch[q] = false
	}
	accept := false
	for _, p := range matched {
		if g.last[p] {
			accept = true
			break
		}
	}
	return &dstate{cand: cand, matched: matched, accept: accept, trans: make([]dtrans, d.nclasses)}
}

// setKey canonicalizes a position set (order-independent) for state lookup.
func setKey(ps []int) string {
	s := make([]int, len(ps))
	copy(s, ps)
	sort.Ints(s)
	buf := make([]byte, 0, 4*len(s))
	for _, p := range s {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	return string(buf)
}
