package validator

import (
	"slices"
	"unsafe"

	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// rawWriter writes a skipped wildcard subtree, token by token, as the text
// the observer's RawElement receives: the subtree as dom.ToString renders
// it, with the namespace bindings its names borrow from its ancestors
// declared once each right after the root's tag name, so that it stands
// alone. Those are known only at the end, so they are collected apart, in
// decls, and spliced in at tag.
type rawWriter struct {
	name     xsd.QName
	buf      []byte
	decls    []byte
	declared []string // the prefixes decls binds ("" is the default namespace)
	tag      int
	// scope holds the prefixes the open elements bind, each one's from its
	// mark; open marks the innermost start tag as not yet closed, so that
	// an empty element ends in "/>".
	scope []string
	marks []int32
	open  bool
}

func (w *rawWriter) active() bool { return len(w.marks) > 0 }

// token writes a token of the subtree, the first being its root's start
// tag, and reports whether it ended the subtree. A tree's empty text node
// is a child to dom.ToString; a decoder's empty text token is none, as
// dom.Parse makes no node of it.
func (w *rawWriter) token(tok *xmlparser.Token, tree bool) (done bool) {
	data := tok.Bytes()
	if tok.Kind == xmlparser.KindText && len(data) == 0 && !tree {
		return false
	}
	if w.open && tok.Kind != xmlparser.KindEndElement {
		w.buf, w.open = append(w.buf, '>'), false
	}
	switch tok.Kind {
	case xmlparser.KindStartElement:
		w.start(tok)
	case xmlparser.KindEndElement:
		w.scope = truncate(w.scope, w.marks[len(w.marks)-1])
		w.marks = w.marks[:len(w.marks)-1]
		if w.open {
			w.buf, w.open = append(w.buf, "/>"...), false
		} else {
			w.buf = xmlparser.AppendEndTag(w.buf, tok.Name)
		}
		return len(w.marks) == 0
	case xmlparser.KindText:
		w.buf, _ = xmlparser.AppendEscaped(w.buf, view(data), false)
	case xmlparser.KindCData:
		w.buf = xmlparser.AppendCData(w.buf, view(data))
	case xmlparser.KindComment:
		w.buf = xmlparser.AppendComment(w.buf, view(data))
	case xmlparser.KindProcInst:
		w.buf = xmlparser.AppendProcInst(w.buf, tok.Target, view(data))
	}
	return false
}

// start writes a start tag, leaving it open, and declares on the root the
// prefixes its names borrow.
func (w *rawWriter) start(tok *xmlparser.Token) {
	w.marks = append(w.marks, int32(len(w.scope)))
	w.buf = xmlparser.AppendName(append(w.buf, '<'), tok.Name)
	if len(w.marks) == 1 {
		w.name, w.tag = xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local}, len(w.buf)
	}
	for i := range tok.Attrs {
		if a := &tok.Attrs[i]; a.IsNamespaceDecl {
			w.scope = append(w.scope, declaredPrefix(a.Name))
		}
	}
	w.need(tok.Name.Prefix, tok.Name.Space)
	for i := range tok.Attrs {
		a := &tok.Attrs[i]
		w.buf = xmlparser.AppendAttr(w.buf, a.Name, a.Value)
		if !a.IsNamespaceDecl && a.Name.Prefix != "" {
			w.need(a.Name.Prefix, a.Name.Space)
		}
	}
	w.open = true
}

// need declares prefix, bound to space, on the root, unless the subtree
// binds it where it is used, has declared it already, or needs no binding.
func (w *rawWriter) need(prefix, space string) {
	if prefix == "xml" || prefix == "" && space == "" || slices.Contains(w.scope, prefix) || slices.Contains(w.declared, prefix) {
		return
	}
	w.declared = append(w.declared, prefix)
	name := xmlparser.Name{Local: "xmlns"}
	if prefix != "" {
		name = xmlparser.Name{Prefix: "xmlns", Local: prefix}
	}
	w.decls = xmlparser.AppendAttr(w.decls, name, space)
}

// finish returns the subtree's text and readies the writer for the next.
func (w *rawWriter) finish() string {
	s := string(w.buf[:w.tag]) + string(w.decls) + string(w.buf[w.tag:])
	w.buf, w.decls, w.declared = w.buf[:0], w.decls[:0], truncate(w.declared, 0)
	return s
}

// reset empties the writer for a pooled machine.
func (w *rawWriter) reset() {
	buf, decls := w.buf, w.decls
	if cap(buf) > poolText {
		buf = nil
	}
	if cap(decls) > poolText {
		decls = nil
	}
	*w = rawWriter{buf: buf[:0], decls: decls[:0], declared: scratch(w.declared), scope: scratch(w.scope), marks: scratch(w.marks)}
}

// view returns b as a string without copying, for a call that keeps
// nothing of it.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
