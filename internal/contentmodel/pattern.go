package contentmodel

import (
	"fmt"
	"slices"
	"unicode/utf8"
)

// ErrConfigCap reports a run that outgrew the configuration cap: its
// verdict is unknown.
var ErrConfigCap = fmt.Errorf("contentmodel: run outgrew its cap of %d configurations", maxConfigs)

// Pattern is a regular expression over runes compiled onto the Glushkov
// automaton: its leaves are rune leaves (Leaf.Runes), and {n,m} bounds
// are counters, not copies. Match runs the automaton's lazy DFA, whose
// alphabet classes are the runes admitted by the same leaves. A Pattern
// is safe for concurrent use.
type Pattern struct {
	g     *Glushkov
	ascii [utf8.RuneSelf]int32 // rune -> class below utf8.RuneSelf
	los   []rune               // first rune of each segment above ASCII, ascending
	cls   []int32              // segment -> class
}

// CompilePattern builds the automaton of a particle tree whose leaves are
// rune leaves. Its only error is CompileGlushkov's. Patterns are not
// checked for Unique Particle Attribution: only their verdict matters.
func CompilePattern(root *Particle) (*Pattern, error) {
	g, err := CompileGlushkov(root)
	if err != nil {
		return nil, err
	}
	// Cut the runes where some leaf's range starts or ends, and at
	// utf8.RuneSelf. Then refine the segments between cuts one leaf at a
	// time: a segment the leaf admits moves from its class to the class
	// of the same positions plus the leaf's, so a class is the segments
	// the same positions admit.
	cuts := []rune{0, utf8.RuneSelf}
	for _, l := range g.leaves {
		for _, rg := range l.Runes {
			cuts = append(cuts, rg.Lo, rg.Hi+1)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	seg := make([]int32, len(cuts)) // segment -> class
	accSets := [][]int{nil}
	var split []int32 // class -> its refinement by the current leaf, or -1
	for p, l := range g.leaves {
		split = split[:0]
		for range accSets {
			split = append(split, -1)
		}
		for _, rg := range l.Runes {
			i, _ := slices.BinarySearch(cuts, rg.Lo)
			for ; i < len(cuts) && cuts[i] <= rg.Hi; i++ {
				c := seg[i]
				if split[c] < 0 {
					split[c] = int32(len(accSets))
					accSets = append(accSets, append(slices.Clone(accSets[c]), p))
				}
				seg[i] = split[c]
			}
		}
	}
	// Number the classes some segment still holds densely.
	m := &Pattern{g: g, los: make([]rune, 0, len(cuts)), cls: make([]int32, 0, len(cuts))}
	dense := make([]int32, len(accSets))
	var used [][]int
	for i, lo := range cuts {
		if dense[seg[i]] == 0 {
			used = append(used, accSets[seg[i]])
			dense[seg[i]] = int32(len(used))
		}
		c := dense[seg[i]] - 1
		if lo >= utf8.RuneSelf {
			if len(m.cls) == 0 || m.cls[len(m.cls)-1] != c {
				m.los, m.cls = append(m.los, lo), append(m.cls, c)
			}
			continue
		}
		hi := rune(utf8.RuneSelf)
		if i+1 < len(cuts) {
			hi = min(hi, cuts[i+1])
		}
		for r := lo; r < hi; r++ {
			m.ascii[r] = c
		}
	}
	g.dfa = newDFA(g, used)
	return m, nil
}

// class maps a rune to its alphabet class.
func (m *Pattern) class(r rune) int32 {
	if r < utf8.RuneSelf {
		return m.ascii[r]
	}
	lo, hi := 0, len(m.los) // m.los[0] is utf8.RuneSelf
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); m.los[mid] <= r {
			lo = mid
		} else {
			hi = mid
		}
	}
	return m.cls[lo]
}

// Match reports whether the automaton accepts the whole of s. It walks
// the shared lazy DFA, growing it within its budget (DefaultDFABudget
// states, maxDFAWords configuration words), and steps configuration sets
// past that. A run that outgrows the configuration cap
// returns ErrConfigCap.
func (m *Pattern) Match(s string) (bool, error) {
	d := m.g.dfa
	st := d.start
	for i, r := range s {
		cls := m.class(r)
		next := st.trans[cls].state.Load()
		if next == nil {
			var ok bool
			if next, _, ok = d.buildTrans(st, cls, DefaultDFABudget); !ok {
				return m.matchNFA(st.cfgs, s[i:])
			}
		}
		if next == dfaReject {
			return false, nil
		}
		st = next
	}
	return st.accept, nil
}

// MatchNFA is Match without the DFA: it steps configuration sets from
// the start over the whole of s, the path Match takes past its budget.
func (m *Pattern) MatchNFA(s string) (bool, error) {
	return m.matchNFA(m.g.dfa.start.cfgs, s)
}

// matchNFA steps the configuration set cfgs over s.
func (m *Pattern) matchNFA(cfgs []int, s string) (bool, error) {
	g := m.g
	mask := make([]bool, len(g.leaves))
	cur, buf := slices.Clone(cfgs), []int(nil)
	for _, r := range s {
		acc := g.dfa.accSets[m.class(r)]
		for _, p := range acc {
			mask[p] = true
		}
		next, leaf, over := g.step(cur, Symbol{}, mask, buf)
		for _, p := range acc {
			mask[p] = false
		}
		if over {
			return false, ErrConfigCap
		}
		if leaf == nil {
			return false, nil
		}
		cur, buf = next, cur
	}
	return g.acceptSet(cur), nil
}

// DFAStates returns the number of DFA states built so far.
func (m *Pattern) DFAStates() int { return m.g.DFAStates() }
