package contentmodel

import (
	"encoding/binary"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultDFABudget is the default number of states a run may grow an
// automaton's shared DFA to. A run that needs a state beyond its budget
// falls back to the NFA stepper from the current configuration set, so
// pathological minOccurs/maxOccurs models stay safe in bounded memory.
const DefaultDFABudget = 4096

// maxDFAWords bounds the configuration words a DFA's states hold in all.
// Each state keeps its configuration set, and under counters below their
// minimums a set gains about one configuration per step, so states alone
// would bound that memory only by the square of the budget.
const maxDFAWords = 1 << 16

// maxDFAWildcards bounds the number of distinct wildcard particles a
// DFA-enabled model may contain: every subset of wildcards that admits a
// namespace is one alphabet class, so k wildcards cost 2^k bucket classes.
const maxDFAWildcards = 4

// maxNamespaceClasses bounds the namespace->bucket-class cache so hostile
// input with unbounded distinct namespaces cannot grow it without limit;
// past the cap the admission mask is recomputed per symbol.
const maxNamespaceClasses = 64

// dfa is a lazy subset construction over one Glushkov automaton.
// Configuration sets reached during matching are memoized into dstates
// with one transition slot per alphabet class; slots are built on demand
// under mu and published with an atomic store, so steppers never block on
// a slot that is already built.
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
	rep      []int   // position -> representative (representatives); nil: itself

	start *dstate

	mu      sync.Mutex
	nstates int
	words   int                // configuration words the states hold
	bySet   map[string]*dstate // configuration-set key -> state
	scratch []bool             // per-position membership scratch, guarded by mu

	nsClass atomic.Value // map[string]int32: namespace -> bucket class, copy-on-write
}

// dstate is one memoized configuration set, in the canonical form the NFA
// stepper keeps, so error messages, leaf assignment, and mid-run fallback
// are indistinguishable from never having used the DFA.
type dstate struct {
	cfgs   []int // configurations after the consumed prefix
	accept bool  // some configuration may end the content
	trans  []dtrans
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
	syms, seenSym, wilds, accSets := g.buildClasses()
	if len(wilds) > maxDFAWildcards {
		return false
	}
	for _, s := range syms {
		in.Intern(s)
	}
	named := make([]int32, in.Len())
	for i := range named {
		named[i] = -1
	}
	for _, s := range syms {
		named[in.Intern(s)] = seenSym[s]
	}
	d := newDFA(g, accSets)
	d.in, d.named, d.nnamed, d.wilds = in, named, len(syms), wilds
	g.dfa = d
	return true
}

// newDFA starts a lazy DFA over g whose alphabet classes are accepted by
// the positions of accSets. Its start state is registered like any other,
// so a successor equivalent to it is it.
func newDFA(g *Glushkov, accSets [][]int) *dfa {
	d := &dfa{
		g:        g,
		nclasses: len(accSets),
		accSets:  accSets,
		rep:      g.representatives(),
		bySet:    map[string]*dstate{},
		scratch:  make([]bool, len(g.leaves)),
	}
	d.start = &dstate{cfgs: []int{g.start()}, accept: g.nullable, trans: make([]dtrans, d.nclasses)}
	d.bySet[d.key(d.start.cfgs)] = d.start
	d.nstates = 1
	return d
}

// representatives maps each position to the first one with the same
// last flag, chain and follow edges: configurations at the two have the
// same future. It returns nil when every position is its own.
func (g *Glushkov) representatives() []int {
	rep := make([]int, len(g.edges))
	first := map[string]int{}
	merged := false
	var sig []byte
	var keys []uint64
	for p, es := range g.edges {
		keys = keys[:0]
		for _, e := range es {
			keys = append(keys, uint64(e.to)<<32|uint64(e.keep)<<1|uint64(b2i(e.step)))
		}
		slices.Sort(keys)
		sig = binary.AppendUvarint(append(sig[:0], byte(b2i(g.last[p]))), uint64(len(g.chains[p])))
		for _, l := range g.chains[p] {
			sig = binary.AppendUvarint(binary.AppendUvarint(sig, uint64(l.scope)), uint64(l.member))
		}
		for _, k := range keys {
			sig = binary.AppendUvarint(sig, k)
		}
		q, ok := first[string(sig)]
		if !ok {
			q = p
			first[string(sig)] = p
		}
		rep[p] = q
		merged = merged || q != p
	}
	if !merged {
		return nil
	}
	return rep
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// buildClasses partitions the element alphabet into the classes EnableDFA
// builds its transitions over: one per element name the model declares
// (syms, in first-seen leaf order, numbered by seenSym), then one bucket
// per subset of the wildcards. accSets lists each class's accepting
// positions, ascending.
func (g *Glushkov) buildClasses() (syms []Symbol, seenSym map[Symbol]int32, wilds []*Leaf, accSets [][]int) {
	seenWild := map[*Leaf]bool{}
	seenSym = map[Symbol]int32{}
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
	accSets = make([][]int, len(syms)+(1<<len(wilds)))
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
	return syms, seenSym, wilds, accSets
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

// namedClass returns the alphabet class of the symbol with ID id in the
// shared interner, or -1 when id is -1 or the model does not name it.
func (d *dfa) namedClass(id int32) int32 {
	if id >= 0 && int(id) < len(d.named) {
		return d.named[id]
	}
	return -1
}

// classOf maps a symbol to its alphabet class. A named symbol's ID, id, or
// when id is -1 the one the shared interner holds, indexes its class;
// everything else lands in the wildcard-admission bucket for its
// namespace.
func (d *dfa) classOf(sym Symbol, id int32) int32 {
	if id < 0 {
		if in, ok := d.in.Lookup(sym); ok {
			id = in
		}
	}
	if c := d.namedClass(id); c >= 0 {
		return c
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
// already holds the calling run's budget of states or maxDFAWords
// configuration words, or the successor set outgrew the configuration
// cap, and the successor was not memoized; the caller must fall back to
// NFA stepping from st.
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
	cfgs, leaf, over := d.g.step(st.cfgs, Symbol{}, d.scratch, nil)
	for _, p := range acc {
		d.scratch[p] = false
	}
	if over {
		return nil, nil, false
	}
	if leaf == nil {
		tr.state.Store(dfaReject)
		return dfaReject, nil, true
	}
	key := d.key(cfgs)
	next, exists := d.bySet[key]
	if !exists {
		if d.nstates >= budget || d.words+len(cfgs) > maxDFAWords {
			return nil, nil, false
		}
		d.words += len(cfgs)
		next = &dstate{cfgs: cfgs, accept: d.g.acceptSet(cfgs), trans: make([]dtrans, d.nclasses)}
		d.bySet[key] = next
		d.nstates++
	}
	tr.leaf = leaf
	tr.state.Store(next)
	return next, leaf, true
}

// key encodes a configuration set, already in canonical form, for state
// lookup, with each position replaced by its representative: sets that
// differ only in equivalent positions share a state, as followpos sets do
// in the Aho–Sethi–Ullman construction ((a|b)*abb has 4 states, not 5).
func (d *dfa) key(cfgs []int) string {
	if d.rep == nil {
		return setKey(cfgs)
	}
	m := slices.Clone(cfgs)
	for i := 0; i < len(m); i += 1 + d.g.slots[m[i]] {
		m[i] = d.rep[m[i]]
	}
	m, _ = d.g.canon(m)
	return setKey(m)
}

// setKey encodes a configuration set, already in canonical form, for
// state lookup.
func setKey(cfgs []int) string {
	buf := make([]byte, 0, 4*len(cfgs))
	for _, v := range cfgs {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return string(buf)
}
