package xsdregex

import "sort"

// Deterministic automaton built with the Aho–Sethi–Ullman followpos
// construction ("Compilers — Principles, Techniques and Tools", the
// algorithm the paper's §6 uses in its preprocessor generator): the AST is
// augmented with a unique end marker, nullable/firstpos/lastpos/followpos
// are computed over positions (leaf character sets), and DFA states are
// sets of positions.

// DFA is a deterministic automaton over rune ranges.
type DFA struct {
	// trans[s] are the outgoing transitions of state s, sorted by Lo and
	// non-overlapping, so lookup is a binary search.
	trans  [][]dfaEdge
	accept []bool
	start  int
	// incomplete is set when subset construction hit maxDFAStates; such
	// an automaton must not be used for matching.
	incomplete bool
}

type dfaEdge struct {
	lo, hi rune
	to     int
}

// NumStates returns the number of DFA states (for tests and benches).
func (d *DFA) NumStates() int { return len(d.trans) }

// Match reports whether the DFA accepts the whole input.
func (d *DFA) Match(input string) bool {
	s := d.start
	for _, r := range input {
		edges := d.trans[s]
		i := sort.Search(len(edges), func(i int) bool { return edges[i].hi >= r })
		if i >= len(edges) || edges[i].lo > r {
			return false
		}
		s = edges[i].to
	}
	return d.accept[s]
}

// position is a leaf occurrence in the followpos construction.
type position struct {
	set CharSet
	end bool // the synthetic end marker
}

// posInfo carries the nullable/firstpos/lastpos attributes up the AST.
type posInfo struct {
	nullable bool
	first    []int
	last     []int
}

type followBuilder struct {
	positions []position
	follow    [][]int
	// work counts the position entries the construction has copied or
	// scanned, against maxDFAWork.
	work int
}

// over reports whether the construction has spent its work budget.
func (fb *followBuilder) over() bool { return fb.work > maxDFAWork }

func (fb *followBuilder) leaf(set CharSet, end bool) posInfo {
	id := len(fb.positions)
	fb.positions = append(fb.positions, position{set: set, end: end})
	fb.follow = append(fb.follow, nil)
	return posInfo{nullable: false, first: []int{id}, last: []int{id}}
}

func (fb *followBuilder) addFollow(from int, to []int) {
	fb.work += len(to)
	fb.follow[from] = append(fb.follow[from], to...)
}

// expandRepeat rewrites a bounded Repeat into Concat/Alt/star form so the
// followpos construction only ever sees star.
func expandRepeat(x Repeat) Node {
	min, max := x.Min, x.Max
	if min > repeatExpandLimit {
		min = repeatExpandLimit
	}
	if max > repeatExpandLimit {
		max = repeatExpandLimit
	}
	var items []Node
	for i := 0; i < min; i++ {
		items = append(items, x.Sub)
	}
	if max < 0 {
		items = append(items, star{Sub: x.Sub})
	} else {
		for i := min; i < max; i++ {
			items = append(items, Alt{Alts: []Node{x.Sub, Empty{}}})
		}
	}
	switch len(items) {
	case 0:
		return Empty{}
	case 1:
		return items[0]
	default:
		return Concat{Items: items}
	}
}

// star is the internal Kleene-star node produced by expandRepeat.
type star struct{ Sub Node }

func (star) isNode() {}

// walkStar handles the Kleene star: every last position loops back to
// every first position.
func (fb *followBuilder) walkStar(x star) posInfo {
	inner := fb.walkAll(x.Sub)
	for _, p := range inner.last {
		fb.addFollow(p, inner.first)
	}
	return posInfo{nullable: true, first: inner.first, last: inner.last}
}

// compileDFA builds the deterministic automaton for the AST.
func compileDFA(root Node) *DFA {
	fb := &followBuilder{}
	// Augment: root · #end.
	info := fb.walkTop(root)
	if fb.over() {
		return &DFA{incomplete: true}
	}
	endInfo := fb.leaf(CharSet{}, true)
	fb.positions[len(fb.positions)-1].end = true
	for _, p := range info.last {
		fb.addFollow(p, endInfo.first)
	}
	startSet := info.first
	if info.nullable {
		startSet = append(append([]int{}, startSet...), endInfo.first...)
	}
	return subsetConstruct(fb, startSet)
}

// walkTop dispatches star nodes (walk cannot see them since they only come
// from expandRepeat, which walkTop applies first).
func (fb *followBuilder) walkTop(n Node) posInfo {
	return fb.walkAll(n)
}

func (fb *followBuilder) walkAll(n Node) posInfo {
	if fb.over() {
		return posInfo{} // the result is discarded
	}
	switch x := n.(type) {
	case star:
		return fb.walkStar(x)
	case Repeat:
		return fb.walkAll(expandRepeat(x))
	case Concat:
		cur := fb.walkAll(x.Items[0])
		for _, item := range x.Items[1:] {
			next := fb.walkAll(item)
			for _, p := range cur.last {
				fb.addFollow(p, next.first)
			}
			merged := posInfo{nullable: cur.nullable && next.nullable}
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
			fb.work += len(merged.first) + len(merged.last)
			cur = merged
		}
		return cur
	case Alt:
		out := posInfo{}
		for _, alt := range x.Alts {
			ai := fb.walkAll(alt)
			out.nullable = out.nullable || ai.nullable
			out.first = append(out.first, ai.first...)
			out.last = append(out.last, ai.last...)
		}
		return out
	case Empty:
		return posInfo{nullable: true}
	case Chars:
		return fb.leaf(x.Set, false)
	default:
		panic("xsdregex: unknown AST node")
	}
}

// maxDFAStates caps subset construction against exponential blowup; when
// exceeded, Regexp falls back to NFA simulation.
const maxDFAStates = 1 << 14

// maxDFAWork caps the position entries the construction copies or scans.
// Optional repeats grow followpos quadratically (.{0,4096}), and large
// classes under a repeat (\p{L}{0,100}) cut the alphabet into hundreds of
// segments per state over long position sets, so the state cap alone
// would let the first MatchString take seconds; past this budget Regexp
// falls back to NFA simulation instead.
const maxDFAWork = 1 << 19

// subsetConstruct runs the subset construction over position sets.
func subsetConstruct(fb *followBuilder, start []int) *DFA {
	start = dedupSorted(start)
	type stateKey string
	keyOf := func(set []int) stateKey {
		b := make([]byte, 0, len(set)*3)
		for _, p := range set {
			b = append(b, byte(p), byte(p>>8), byte(p>>16))
		}
		return stateKey(b)
	}
	d := &DFA{}
	index := map[stateKey]int{}
	var sets [][]int
	addState := func(set []int) int {
		k := keyOf(set)
		if id, ok := index[k]; ok {
			return id
		}
		id := len(sets)
		index[k] = id
		sets = append(sets, set)
		d.trans = append(d.trans, nil)
		acc := false
		for _, p := range set {
			if fb.positions[p].end {
				acc = true
			}
		}
		d.accept = append(d.accept, acc)
		return id
	}
	d.start = addState(start)
	for si := 0; si < len(sets); si++ {
		if si >= maxDFAStates {
			d.incomplete = true
			break
		}
		set := sets[si]
		// Partition the alphabet into segments on which the position
		// membership is uniform.
		var cuts []rune
		for _, p := range set {
			for _, rg := range fb.positions[p].set.Ranges {
				cuts = append(cuts, rg.Lo, rg.Hi+1)
			}
		}
		if len(cuts) == 0 {
			continue
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		cuts = dedupRunes(cuts)
		for ci := 0; ci+1 <= len(cuts); ci++ {
			lo := cuts[ci]
			var hi rune
			if ci+1 < len(cuts) {
				hi = cuts[ci+1] - 1
			} else {
				hi = maxRune
			}
			if lo > maxRune {
				break
			}
			// Compute the move on the representative rune lo.
			var target []int
			for _, p := range set {
				if fb.positions[p].set.Contains(lo) {
					target = append(target, fb.follow[p]...)
				}
			}
			fb.work += len(set) + len(target)
			if fb.over() {
				d.incomplete = true
				return d
			}
			if len(target) == 0 {
				continue
			}
			target = dedupSorted(target)
			to := addState(target)
			d.trans[si] = append(d.trans[si], dfaEdge{lo: lo, hi: hi, to: to})
		}
		// Merge adjacent edges to the same target.
		d.trans[si] = mergeEdges(d.trans[si])
	}
	return d
}

func dedupSorted(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func dedupRunes(xs []rune) []rune {
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func mergeEdges(edges []dfaEdge) []dfaEdge {
	if len(edges) == 0 {
		return edges
	}
	out := edges[:1]
	for _, e := range edges[1:] {
		last := &out[len(out)-1]
		if e.to == last.to && e.lo == last.hi+1 {
			last.hi = e.hi
			continue
		}
		out = append(out, e)
	}
	return out
}
