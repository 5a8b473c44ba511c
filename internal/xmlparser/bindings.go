package xmlparser

// Bindings is a namespace scope: the URIs bound to each prefix ("" for the
// default namespace), innermost last. An element's declarations are pushed
// when it opens and popped back to a mark when it closes. The zero value is
// an empty scope.
//
// A lookup is answered in one of three ways, by what the scope has seen:
//   - while it holds at most smallScope bindings, by a search from the
//     innermost end, which needs no map;
//   - past that, from a memo of the prefixes looked up so far, which pushes
//     and pops keep current. A document that declares a new prefix on
//     every level of a deep chain, but looks up only a few, keeps a small
//     map that stays in cache, however deep it nests;
//   - once the memo's searches have cost more than twice the pushes, from
//     an index of every prefix in scope, so that no document can make the
//     searches cost more than linear time.
//
// A prefix found among the innermost smallScope bindings is not memoized,
// since finding it again costs no more: a chain whose every level declares
// and uses its own prefix keeps the memo as small as one that declares
// prefixes it never uses. A Lookup may write the memo, so goroutines that
// share a scope must take turns even to read it.
type Bindings struct {
	list []binding
	// index maps a prefix to the position of its innermost binding, or -1
	// when it has none. It is nil while the scope is small; full marks that
	// it holds every prefix in scope rather than a memo.
	index map[string]int
	full  bool
	// pushes and searched measure the memo's search budget.
	pushes, searched int
}

// binding is one declaration in scope. shadows is the position of the
// binding of the same prefix it hides, -1 when it hides none, or
// unknownShadow when the prefix was not in the index as it was pushed.
type binding struct {
	prefix, uri string
	shadows     int
}

const unknownShadow = -2

// smallScope is how many bindings a scope holds before lookups are
// memoized. Documents declare a handful of prefixes, most of them on the
// root.
const smallScope = 16

// searchSlack is the search work the memo may spend beyond twice the
// pushes before the whole scope is indexed.
const searchSlack = 1024

// Mark returns the position Pop rewinds to.
func (b *Bindings) Mark() int { return len(b.list) }

// Push binds prefix to uri, shadowing any outer binding of prefix.
func (b *Bindings) Push(prefix, uri string) {
	b.pushes++
	if b.index == nil && len(b.list) == smallScope {
		b.index = make(map[string]int)
	}
	e := binding{prefix: prefix, uri: uri, shadows: unknownShadow}
	if b.index != nil {
		if i, ok := b.index[prefix]; ok || b.full {
			e.shadows = -1
			if ok {
				e.shadows = i
			}
			b.index[prefix] = len(b.list)
		}
	}
	if len(b.list) == cap(b.list) {
		// Double, where append would grow a long list by a quarter.
		b.list = append(make([]binding, 0, 2*len(b.list)+4), b.list...)
	}
	b.list = append(b.list, e)
}

// Pop drops the bindings pushed since mark. Most elements declare nothing,
// so the check inlines into recursive walks and the loop, which would
// enlarge their stack frames, does not.
func (b *Bindings) Pop(mark int) {
	if len(b.list) > mark {
		b.pop(mark)
	}
}

//go:noinline
func (b *Bindings) pop(mark int) {
	if b.index != nil {
		for i := len(b.list) - 1; i >= mark; i-- {
			switch e := &b.list[i]; {
			case e.shadows == unknownShadow:
				// The memo, if it holds the prefix, points here: forget it.
				delete(b.index, e.prefix)
			case e.shadows < 0 && b.full:
				delete(b.index, e.prefix)
			default:
				b.index[e.prefix] = e.shadows
			}
		}
	}
	b.list = b.list[:mark]
}

// Lookup returns the innermost URI bound to prefix, as declared (an
// undeclared default namespace reads as ""), and whether one is in scope.
func (b *Bindings) Lookup(prefix string) (string, bool) {
	var i int
	if b.index == nil {
		i = b.search(prefix)
	} else if j, ok := b.index[prefix]; ok {
		i = j
	} else if b.full {
		i = -1
	} else {
		i = b.memoize(prefix)
	}
	if i < 0 {
		return "", false
	}
	return b.list[i].uri, true
}

// search returns the position of the innermost binding of prefix, or -1.
func (b *Bindings) search(prefix string) int {
	i := len(b.list) - 1
	for i >= 0 && b.list[i].prefix != prefix {
		i--
	}
	return i
}

// memoize searches for prefix and records the answer in the memo, or,
// once the searches have outrun the budget, indexes the whole scope.
func (b *Bindings) memoize(prefix string) int {
	i := b.search(prefix)
	cost := len(b.list) - i
	b.searched += cost
	if b.searched > 2*b.pushes+searchSlack {
		b.indexAll()
	} else if cost > smallScope {
		b.index[prefix] = i
	}
	return i
}

// indexAll replaces the memo with an index of every binding in scope.
func (b *Bindings) indexAll() {
	clear(b.index)
	for i := range b.list {
		e := &b.list[i]
		e.shadows = -1
		if j, ok := b.index[e.prefix]; ok {
			e.shadows = j
		}
		b.index[e.prefix] = i
	}
	b.full = true
}

// reset empties the scope for a pooled decoder's next document. The list
// is kept as scratch; the index is dropped, since most documents never
// build one.
func (b *Bindings) reset() { *b = Bindings{list: clearedScratch(b.list)} }
