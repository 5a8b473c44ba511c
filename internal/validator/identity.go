package validator

// Identity constraints (xs:unique, xs:key, xs:keyref): the feature the
// paper's §3 defers, added as a marked extension. Their selectors and
// fields, the restricted XPath subset of the recommendation, are parsed
// with the schema (xsd.XPath) and evaluated here on the tokens as they
// pass, so a scope costs its keys, not its subtree.
//
// An element whose declaration carries constraints opens a scope where the
// machine opens its frame; a nilled or dead element opens none. While a
// scope is open the tracker sees every token, unvalidated subtrees
// included, and keeps a stack of the open elements' local names and
// preorder numbers. A path reaches an element when the names ending at it
// spell its steps from the path's base (the scope for a selector, the
// selected node for a field) or, after ".//", from any element below it.
// A scope's selected nodes are judged when it closes, in the order of the
// DOM evaluator the tracker replaced (idKey); a node two alternatives
// select counts once, at the first. A field takes the first candidate in
// that order that yields a value: a no-namespace attribute by local name,
// as dom.Element.HasAttribute matches, or the trimmed text of an element
// with no element children. A keyref sees only its own scope's keys.
// Nested scopes of one declaration share the nodes they select and those
// nodes' fields (idGroup), so an element costs one pick per constraint
// however many scopes reach it; each scope still judges its own nodes.

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// identity is the machine's identity-constraint tracker. Its stacks keep
// int32 marks into one another, as frames do into the machine's.
type identity struct {
	elems  []idElem  // open elements from the outermost scope's; none when no scope is open
	pre    int32     // the next start tag's preorder number
	text   []byte    // the innermost element's text, while it is a field candidate
	scopes []idScope // open scopes, innermost last
	groups []idGroup // the declarations with an open scope, in the order their outermost opened
	open   []idOpen  // the open nodes whose fields reach below them
	wants  []idWant  // the open elements' element-text candidacies
	order  []int32   // a closing scope's picks, in order
	parts  []string  // one key's field values
	tables []idTable // a closing scope's key tables, by constraint
}

// idKey orders selected nodes and field candidates: by path alternative,
// then by the preorder number of the element the path's first step starts
// from, then by the node's own.
type idKey struct{ alt, start, pre int32 }

func (k idKey) cmp(o idKey) int {
	return cmp.Or(cmp.Compare(k.alt, o.alt), cmp.Compare(k.start, o.start), cmp.Compare(k.pre, o.pre))
}

// idElem is an open element. Its candidacies start at wantMark on wants;
// kid marks an element child, after which its text counts for no field;
// group is the group of the scope it opens, or -1.
type idElem struct {
	local                string
	pre, wantMark, group int32
	kid                  bool
}

// idScope is an open scope: the element elems[depth], whose picks start at
// pickMark on its group's.
type idScope struct{ group, depth, pickMark int32 }

// idGroup holds the nodes the open scopes of one declaration select. The
// scopes nest, so each one's picks are those from its mark that its depth
// reaches; a node they share is picked once, with one field state.
type idGroup struct {
	decl   *xsd.ElementDecl
	depth  int32 // the outermost scope's
	picks  []idPick
	fields []idField
}

// idPick is a node that alternative key.alt of constraint c's selector
// reaches from the element at depth startDepth, with its fields from
// fieldMark.
type idPick struct {
	key                      idKey
	startDepth, c, fieldMark int32
}

// idField is a field's first candidate so far, once one is found.
type idField struct {
	val   string
	key   idKey
	found bool
}

// takes reports whether a candidate with key k comes before the field's.
func (f *idField) takes(k idKey) bool { return !f.found || k.cmp(f.key) < 0 }

// idOpen is an open node and its depth, with the fields of constraint c
// its group keeps for it from fieldMark; idWant an element's candidacy, by
// key, for an element-text field.
type idOpen struct{ group, c, fieldMark, depth int32 }
type idWant struct {
	group, field int32
	key          idKey
}

// idTable is a key table kept for the next closing scope. Clearing a map
// costs the most keys it was sized for, peak, so a table much larger than
// a scope needs is replaced.
type idTable struct {
	keys map[string]bool
	peak int
}

func (t *identity) active() bool { return len(t.elems) > 0 }

// grow makes room for n more entries in s, at least doubling it when full,
// so a scope with many keys copies each a bounded number of times.
func grow[E any](s []E, n int) []E {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(n, len(s)))
	}
	return s
}

// token advances the tracker over a token of an open scope.
func (t *identity) token(tok *xmlparser.Token) {
	switch tok.Kind {
	case xmlparser.KindStartElement:
		d := t.push(tok)
		for _, o := range t.open {
			t.offer(o, d, tok)
		}
		for g := range t.groups {
			t.selectAt(int32(g), d, tok, false)
		}
	case xmlparser.KindEndElement:
		t.end()
	case xmlparser.KindText, xmlparser.KindCData:
		if e := &t.elems[len(t.elems)-1]; !e.kid && len(t.wants) > int(e.wantMark) {
			t.text = append(t.text, tok.Bytes()...)
		}
	}
}

// push opens the element of tok and returns its depth.
func (t *identity) push(tok *xmlparser.Token) int {
	if n := len(t.elems); n > 0 {
		t.elems[n-1].kid = true
	}
	t.text = t.text[:0]
	t.elems = append(t.elems, idElem{local: tok.Name.Local, pre: t.pre, wantMark: int32(len(t.wants)), group: -1})
	t.pre++
	return len(t.elems) - 1
}

// openScope opens the scope of the element of tok, which the machine has
// just opened with decl, in its declaration's group.
func (t *identity) openScope(decl *xsd.ElementDecl, tok *xmlparser.Token) {
	d := len(t.elems) - 1
	if d < 0 {
		d = t.push(tok) // no scope was open to push it
	}
	g := int32(len(t.groups) - 1)
	for g >= 0 && t.groups[g].decl != decl {
		g--
	}
	if g < 0 {
		// A popped group's slot keeps its slices for the next.
		g = int32(len(t.groups))
		t.groups = slices.Grow(t.groups, 1)[:g+1]
		t.groups[g].decl, t.groups[g].depth = decl, int32(d)
	}
	t.elems[d].group = g
	t.scopes = append(t.scopes, idScope{g, int32(d), int32(len(t.groups[g].picks))})
	t.selectAt(g, d, tok, true)
}

// spells reports whether the names ending at elems[d] spell the steps of
// path p, and the depth of the element its first step starts from.
func (t *identity) spells(p *xsd.XPath, d int) (int, bool) {
	s := d - len(p.Steps)
	if s < 0 {
		return 0, false
	}
	for i, step := range p.Steps {
		if step != "*" && t.elems[s+1+i].local != step {
			return 0, false
		}
	}
	return s, true
}

// based reports whether path p, its first step starting from the element
// at depth s, is based at depth base: at base itself or, after ".//",
// anywhere below it. A path without steps reaches its base alone.
func based(p *xsd.XPath, s, base int32) bool {
	return s == base || s > base && p.Descendant && len(p.Steps) > 0
}

// selectAt picks elems[d], the element of tok, for each constraint of
// group g and each selector alternative that reaches it from an open scope
// of the group: from below the outermost, or from the scope its first step
// starts at. With own, d has just opened a scope, and only the paths
// without steps, which reach their base alone, are tried. The node is a
// candidate for its own fields, and stays open while they reach below it.
func (t *identity) selectAt(g int32, d int, tok *xmlparser.Token, own bool) {
	gr := &t.groups[g]
	for c, ic := range gr.decl.Constraints {
		fm := int32(-1)
		for alt := range ic.Selector {
			p := &ic.Selector[alt]
			s, ok := t.spells(p, d)
			if !ok || own && len(p.Steps) > 0 || !based(p, int32(s), gr.depth) && t.elems[s].group != g {
				continue
			}
			if fm < 0 {
				fm = int32(len(gr.fields))
				gr.fields = grow(gr.fields, len(ic.Fields))[:int(fm)+len(ic.Fields)]
				o := idOpen{g, int32(c), fm, int32(d)}
				t.offer(o, d, tok)
				if slices.ContainsFunc(ic.Fields, func(paths []xsd.XPath) bool {
					return slices.ContainsFunc(paths, func(q xsd.XPath) bool { return len(q.Steps) > 0 })
				}) {
					t.open = append(t.open, o)
				}
			}
			gr.picks = append(grow(gr.picks, 1), idPick{idKey{int32(alt), t.elems[s].pre, t.elems[d].pre}, int32(s), int32(c), fm})
		}
	}
}

// offer makes elems[d], the element of tok, a candidate for the fields of
// open node o: an attribute field takes its value now, an element field at
// the element's end tag.
func (t *identity) offer(o idOpen, d int, tok *xmlparser.Token) {
	gr := &t.groups[o.group]
	for i, paths := range gr.decl.Constraints[o.c].Fields {
		f := o.fieldMark + int32(i)
		for alt := range paths {
			q := &paths[alt]
			s, ok := t.spells(q, d)
			ok = ok && based(q, int32(s), o.depth)
			k := idKey{int32(alt), t.elems[s].pre, t.elems[d].pre}
			switch {
			case !ok || !gr.fields[f].takes(k):
			case q.Attr == "":
				t.wants = append(t.wants, idWant{o.group, f, k})
			default:
				if v, ok := tok.Attr("", q.Attr); ok {
					gr.fields[f] = idField{strings.Clone(v), k, true}
				}
			}
		}
	}
}

// end closes the innermost element: its text settles the fields it is a
// candidate for, and its open nodes close.
func (t *identity) end() {
	d := len(t.elems) - 1
	e := t.elems[d]
	if wants := t.wants[e.wantMark:]; len(wants) > 0 && !e.kid {
		val := string(bytes.TrimSpace(t.text))
		for _, w := range wants {
			if f := &t.groups[w.group].fields[w.field]; f.takes(w.key) {
				*f = idField{val, w.key, true}
			}
		}
	}
	t.wants = truncate(t.wants, e.wantMark)
	t.text = t.text[:0]
	for n := len(t.open); n > 0 && t.open[n-1].depth == int32(d); n-- {
		t.open = t.open[:n-1]
	}
	t.elems = truncate(t.elems, int32(d))
}

// closing reports whether the element whose end tag the tracker just
// passed opened the innermost scope.
func (t *identity) closing() bool {
	n := len(t.scopes)
	return n > 0 && int(t.scopes[n-1].depth) == len(t.elems)
}

// closeScope judges the scope closing reported, on the picks from its mark
// that its depth reaches, each node by the first alternative that does.
// The group's nodes stay for its enclosing scopes; its outermost scope
// drops them.
func (t *identity) closeScope(violate func(msg string)) {
	sc := t.scopes[len(t.scopes)-1]
	t.scopes = t.scopes[:len(t.scopes)-1]
	gr := &t.groups[sc.group]
	for i := sc.pickMark; i < int32(len(gr.picks)); i++ {
		p := &gr.picks[i]
		if !based(&gr.decl.Constraints[p.c].Selector[p.key.alt], p.startDepth, sc.depth) {
			continue
		}
		// A node's picks for one constraint are adjacent, by alternative.
		if n := len(t.order); n > 0 && gr.picks[t.order[n-1]].key.pre == p.key.pre && gr.picks[t.order[n-1]].c == p.c {
			continue
		}
		t.order = append(t.order, i)
	}
	slices.SortFunc(t.order, func(a, b int32) int { return gr.picks[a].key.cmp(gr.picks[b].key) })
	t.identityViolations(gr, violate)
	t.order = t.order[:0]
	if sc.depth == gr.depth {
		gr.decl, gr.picks, gr.fields = nil, truncate(gr.picks, 0), truncate(gr.fields, 0)
		t.groups = t.groups[:sc.group]
	}
}

// eachKey calls fn with the key of each node constraint c selected, in
// order: its field values, ok false when a field is absent.
func (t *identity) eachKey(gr *idGroup, c int32, fn func(parts []string, ok bool)) {
	n := int32(len(gr.decl.Constraints[c].Fields))
	for _, pi := range t.order {
		p := &gr.picks[pi]
		if p.c != c {
			continue
		}
		parts, ok := t.parts[:0], true
		for _, f := range gr.fields[p.fieldMark : p.fieldMark+n] {
			ok = ok && f.found
			parts = append(parts, f.val)
		}
		t.parts = parts
		fn(parts, ok)
	}
	clear(t.parts)
}

// table returns constraint c's key table, empty, for a scope of n keys.
func (t *identity) table(c, n int) map[string]bool {
	if len(t.tables) <= c {
		t.tables = append(t.tables, make([]idTable, c+1-len(t.tables))...)
	}
	tb := &t.tables[c]
	if tb.keys == nil || tb.peak > 4*n+64 {
		*tb = idTable{keys: make(map[string]bool, n)}
	}
	clear(tb.keys)
	tb.peak = max(tb.peak, n)
	return tb.keys
}

// identityViolations reports each violation of the closing scope's
// constraints, in order: the keys and uniques first, each filling its
// table, then the keyrefs against those tables.
func (t *identity) identityViolations(gr *idGroup, violate func(msg string)) {
	cs := gr.decl.Constraints
	for c, ic := range cs {
		if ic.Kind == xsd.ConstraintKeyref {
			// Evaluated after the referenced key's table exists.
			continue
		}
		tbl := t.table(c, len(t.order))
		t.eachKey(gr, int32(c), func(parts []string, ok bool) {
			if !ok {
				if ic.Kind == xsd.ConstraintKey {
					violate(fmt.Sprintf("key %s: a selected node is missing a field", ic.Name.Local))
				}
				return // unique tolerates absent fields
			}
			// One hash per key: the table grows unless it held the key.
			n := len(tbl)
			if tbl[strings.Join(parts, "\x1f")] = true; len(tbl) == n {
				violate(fmt.Sprintf("%s %s: duplicate value {%s}", ic.Kind, ic.Name.Local, strings.Join(parts, ", ")))
			}
		})
	}

	for c, ic := range cs {
		if ic.Kind != xsd.ConstraintKeyref {
			continue
		}
		// The table of the last key or unique of that name.
		ref := len(cs) - 1
		for ref >= 0 && (cs[ref].Kind == xsd.ConstraintKeyref || cs[ref].Name != ic.Refer) {
			ref--
		}
		if ref < 0 {
			violate(fmt.Sprintf("keyref %s refers to unknown key %s in this scope", ic.Name.Local, ic.Refer.Local))
			continue
		}
		refTbl := t.tables[ref].keys
		t.eachKey(gr, int32(c), func(parts []string, ok bool) {
			if ok && !refTbl[strings.Join(parts, "\x1f")] {
				violate(fmt.Sprintf("keyref %s: value {%s} does not match any %s key", ic.Name.Local, strings.Join(parts, ", "), ic.Refer.Local))
			}
		})
	}
}

// reset empties the tracker for a pooled machine. Its key tables go with
// the document's keys; each group slot keeps its slices.
func (t *identity) reset() {
	text, groups := t.text, scratch(t.groups)
	if cap(text) > poolText {
		text = nil
	}
	if groups != nil {
		for i, g := range groups[:cap(groups)] {
			groups[:cap(groups)][i] = idGroup{picks: scratch(g.picks), fields: scratch(g.fields)}
		}
	}
	*t = identity{elems: scratch(t.elems), text: text[:0], scopes: scratch(t.scopes), groups: groups,
		open: scratch(t.open), wants: scratch(t.wants), order: scratch(t.order), parts: scratch(t.parts)}
}
