package validator

// Lazy violation paths. A violation's path (/purchaseOrder/items/item[2])
// is built only when the violation reaches a Result, so a walk pays per
// node, not per ancestor: valid documents build no path at all, and a
// violation costs its depth once, after the violation cap has admitted it.
//
// The two walks locate elements differently:
//
//   - The DOM walk names the element itself. Its run records an anchor —
//     an element and that element's path — and rendering walks up from the
//     located element to the anchor, counting earlier same-named element
//     siblings for each positional predicate.
//   - The streaming walk has no tree to walk up. Each frame keeps its name,
//     its same-name position and its parent frame, and freezes them into an
//     immutable step chain the first time a location needs it (freeze), at
//     most once per frame, so a chain with an ID at every level stays
//     linear. Frozen steps outlive the frames, as IDs and IDREFs must.
//
// A path known only as a string — the document root, a content-model
// mismatch's child — is a single step.

import (
	"fmt"
	"strconv"

	"repro/internal/dom"
)

// pathStep is one immutable step of a location path: the parent's path,
// then "/" and tag, with a [n] predicate when n > 1. A step without a
// parent renders its tag verbatim, so a whole path can be one step.
type pathStep struct {
	parent *pathStep
	tag    string
	n      int
}

// pathLoc locates a path known as a string.
func pathLoc(path string) loc { return loc{base: &pathStep{tag: path}} }

// appendTo renders the step chain onto b.
func (s *pathStep) appendTo(b []byte) []byte {
	var up []*pathStep
	for p := s; p != nil; p = p.parent {
		up = append(up, p)
	}
	for i := len(up) - 1; i >= 0; i-- {
		p := up[i]
		if p.parent != nil {
			b = append(b, '/')
		}
		b = appendStep(b, p.tag, p.n)
	}
	return b
}

// appendStep renders tag with its positional predicate.
func appendStep(b []byte, tag string, n int) []byte {
	b = append(b, tag...)
	if n > 1 {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, ']')
	}
	return b
}

// loc is a violation location. The streaming walk's locations are a
// frozen step chain (el nil); the DOM walk's name el relative to the
// anchor root, whose path is base. attr adds an attribute step.
type loc struct {
	base *pathStep
	root *dom.Element
	el   *dom.Element
	attr string
}

// path renders the location.
func (l loc) path() string {
	below := l.el != nil && l.el != l.root
	if !below && l.attr == "" && l.base.parent == nil && l.base.n < 2 {
		return l.base.tag
	}
	b := l.base.appendTo(nil)
	if below {
		b = appendElementSteps(b, l.el, l.root)
	}
	if l.attr != "" {
		b = append(b, "/@"...)
		b = append(b, l.attr...)
	}
	return string(b)
}

// appendElementSteps renders the steps from root (exclusive) down to el.
func appendElementSteps(b []byte, el, root *dom.Element) []byte {
	var up []*dom.Element
	for e := el; e != nil && e != root; {
		up = append(up, e)
		e, _ = e.ParentNode().(*dom.Element)
	}
	for i := len(up) - 1; i >= 0; i-- {
		e := up[i]
		n := 1
		for s := e.PreviousSibling(); s != nil; s = s.PreviousSibling() {
			if se, ok := s.(*dom.Element); ok && sameTag(se, e) {
				n++
			}
		}
		b = append(b, '/')
		b = appendStep(b, e.TagName(), n)
	}
	return b
}

// sameTag compares tag names without building them.
func sameTag(a, b *dom.Element) bool {
	an, bn := a.Name(), b.Name()
	return an.Local == bn.Local && an.Prefix == bn.Prefix
}

// violation is a recorded violation, rendered by render. A duplicate ID
// carries the ID in msg and the first declaration's location in first,
// whose path joins the message only then.
type violation struct {
	at    loc
	msg   string
	first *loc
}

// dupID records a duplicate of the ID first declared at first.
func dupID(at loc, id string, first loc) violation {
	f := new(loc)
	*f = first
	return violation{at: at, msg: id, first: f}
}

// render resolves recorded violations into their public form.
func render(viols []violation) []Violation {
	if len(viols) == 0 {
		return nil
	}
	out := make([]Violation, len(viols))
	for i, v := range viols {
		msg := v.msg
		if v.first != nil {
			msg = fmt.Sprintf("duplicate ID %q (first declared at %s)", v.msg, v.first.path())
		}
		out[i] = Violation{Path: v.at.path(), Msg: msg}
	}
	return out
}

// subtreeSteps freezes DOM locations under root — a subtree about to be
// released — into step chains based at base, the path of root. Each
// parent's children are indexed once, so freezing any number of locations
// costs at most the subtree's size.
type subtreeSteps struct {
	root  *dom.Element
	base  *pathStep
	steps map[*dom.Element]*pathStep
}

// loc returns l with any DOM element replaced by its frozen steps.
func (z *subtreeSteps) loc(l loc) loc {
	if l.el == nil {
		return l
	}
	return loc{base: z.step(l.el), attr: l.attr}
}

func (z *subtreeSteps) step(el *dom.Element) *pathStep {
	if el == z.root {
		return z.base
	}
	if s, ok := z.steps[el]; ok {
		return s
	}
	if z.steps == nil {
		z.steps = map[*dom.Element]*pathStep{}
	}
	// Index the children of every unindexed ancestor's parent, top-down.
	var up []*dom.Element
	for e := el; e != z.root; {
		if _, ok := z.steps[e]; ok {
			break
		}
		p := e.ParentNode().(*dom.Element)
		up = append(up, p)
		e = p
	}
	counts := map[string]int{}
	for i := len(up) - 1; i >= 0; i-- {
		p := up[i]
		ps := z.base
		if p != z.root {
			ps = z.steps[p]
		}
		clear(counts)
		for _, c := range p.ChildNodes() {
			if ce, ok := c.(*dom.Element); ok {
				tag := ce.TagName()
				counts[tag]++
				z.steps[ce] = &pathStep{parent: ps, tag: tag, n: counts[tag]}
			}
		}
	}
	return z.steps[el]
}
