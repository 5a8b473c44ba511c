package contentmodel

import (
	"errors"
	"sort"
)

// ErrInclusionBudget is returned by Includes when the product construction
// exceeds its state budget before reaching a verdict. Callers should treat
// the relation as unknown and fall back to a conservative answer.
var ErrInclusionBudget = errors.New("contentmodel: inclusion check exceeded its state budget")

// defaultInclusionBudget bounds the number of visited product states. Real
// schema content models determinize to a handful of states; the budget
// exists for adversarial choice nests, not for normal schemas.
const defaultInclusionBudget = 1 << 14

// probeLocal is the local name used for wildcard probe symbols. It is not
// a valid NCName, so it can never collide with a concrete element name
// declared by any schema; a probe symbol is accepted only by wildcard
// leaves whose namespace predicate admits the probe's namespace.
const probeLocal = "\x01wildcard-probe"

// probeNamespace stands for "every namespace neither automaton mentions".
// All such namespaces are indistinguishable to the leaf predicates we
// compile (exact names, ##any, ##other, namespace lists), so one
// representative is enough to make the finite test alphabet complete.
const probeNamespace = "\x01urn:contentmodel:fresh-namespace"

// Includes reports whether the language of sup contains the language of
// sub: every child-element sequence sub accepts, sup accepts too. This is
// the decision procedure behind schema-evolution compatibility — "does the
// new content model still admit everything the old one did" is
// Includes(new, old).
//
// The check runs a product subset construction over the two automata,
// stepping configuration sets with the matcher's own step function. The
// alphabet of the product is finite even though wildcards admit
// infinitely many names: leaf predicates only distinguish exact
// names and namespace membership, so the concrete names of both automata
// plus one probe symbol per mentioned namespace (and one for a fresh,
// unmentioned namespace) cover every equivalence class of symbols.
//
// stateLimit bounds the visited product states (<= 0 selects the default,
// 16384). On overflow, or when a step outgrows the matcher's configuration
// cap, the verdict is unknown and ErrInclusionBudget is returned.
func Includes(sup, sub *Glushkov, stateLimit int) (bool, error) {
	if stateLimit <= 0 {
		stateLimit = defaultInclusionBudget
	}
	// The empty sequence first: nullability is acceptance at the start
	// state, which the BFS below never revisits.
	if sub.nullable && !sup.nullable {
		return false, nil
	}
	alphabet := testAlphabet(sup, sub)

	// A determinized state is a pair of configuration sets, starting at
	// each automaton's start. Every reachable configuration is
	// coaccessible — it sits on a leaf of the expression with its counters
	// within bounds, so some word through it reaches acceptance — which is
	// what makes "sub alive, sup dead" an immediate non-inclusion witness
	// below.
	type state struct{ sub, sup []int }
	cur := state{sub: []int{sub.start()}, sup: []int{sup.start()}}
	seen := map[string]bool{setKey(cur.sub) + "|" + setKey(cur.sup): true}
	queue := []state{cur}

	for len(queue) > 0 {
		cur, queue = queue[0], queue[1:]
		for _, sym := range alphabet {
			subNext, _, over := sub.step(cur.sub, sym, nil, nil)
			if over {
				return false, ErrInclusionBudget
			}
			if len(subNext) == 0 {
				continue // sub rejects every word through here
			}
			supNext, _, over := sup.step(cur.sup, sym, nil, nil)
			if over {
				return false, ErrInclusionBudget
			}
			if len(supNext) == 0 {
				// sub can still reach acceptance (coaccessibility), sup is
				// dead: some word is in L(sub) \ L(sup).
				return false, nil
			}
			if sub.acceptSet(subNext) && !sup.acceptSet(supNext) {
				return false, nil
			}
			k := setKey(subNext) + "|" + setKey(supNext)
			if seen[k] {
				continue
			}
			if len(seen) >= stateLimit {
				return false, ErrInclusionBudget
			}
			seen[k] = true
			queue = append(queue, state{sub: subNext, sup: supNext})
		}
	}
	return true, nil
}

// Equivalent reports whether two automata accept exactly the same
// language, under the same budget semantics as Includes.
func Equivalent(a, b *Glushkov, stateLimit int) (bool, error) {
	ab, err := Includes(a, b, stateLimit)
	if err != nil || !ab {
		return false, err
	}
	return Includes(b, a, stateLimit)
}

// testAlphabet derives the finite symbol set that distinguishes every pair
// of determinized states of the given automata: all concrete names, plus
// one probe per namespace any leaf mentions (wildcard target namespaces
// and namespace lists included, and the empty namespace for ##local),
// plus one probe in a namespace nobody mentions.
func testAlphabet(gs ...*Glushkov) []Symbol {
	names := map[Symbol]bool{}
	namespaces := map[string]bool{"": true, probeNamespace: true}
	for _, g := range gs {
		for _, l := range g.leaves {
			for _, n := range l.Names {
				names[n] = true
				namespaces[n.Space] = true
			}
			if w := l.Wildcard; w != nil {
				namespaces[w.TargetNS] = true
				for _, ns := range w.Namespaces {
					namespaces[ns] = true
				}
			}
		}
	}
	out := make([]Symbol, 0, len(names)+len(namespaces))
	for n := range names {
		out = append(out, n)
	}
	for ns := range namespaces {
		out = append(out, Symbol{Space: ns, Local: probeLocal})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Space != out[j].Space {
			return out[i].Space < out[j].Space
		}
		return out[i].Local < out[j].Local
	})
	return out
}
