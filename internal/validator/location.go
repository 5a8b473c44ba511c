package validator

// Lazy violation paths. A violation's path (/purchaseOrder/items/item[2])
// is built only when the violation reaches a Result, so a walk pays per
// node, not per ancestor: valid documents build no path at all, and a
// violation costs its depth once, after the violation cap has admitted it.
//
// The machine locates elements by their frames, whatever the token
// source: each frame keeps its name, its same-name position and its parent
// frame, and freezes them into an immutable step chain the first time a
// location needs it (freeze), at most once per frame, so a chain with an
// ID at every level stays linear. Frozen steps outlive the frames, as IDs
// and IDREFs must.
//
// A path known only as a string — the document root, a content-model
// mismatch's child — is a single step.

import (
	"fmt"
	"strconv"
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

// loc is a violation location: a frozen step chain, and with attr an
// attribute step below it.
type loc struct {
	base *pathStep
	attr string
}

// path renders the location.
func (l loc) path() string {
	if l.attr == "" && l.base.parent == nil && l.base.n < 2 {
		return l.base.tag
	}
	b := l.base.appendTo(nil)
	if l.attr != "" {
		b = append(b, "/@"...)
		b = append(b, l.attr...)
	}
	return string(b)
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
