package validator

import (
	"context"
	"io"

	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// ValidateDocumentEvents is ValidateDocument with an event observer: ev
// receives the StreamEvents callbacks while the verdict is computed exactly
// as without an observer.
func (v *Validator) ValidateDocumentEvents(doc *dom.Document, ev StreamEvents) *Result {
	root := doc.DocumentElement()
	if root == nil {
		return &Result{Violations: []Violation{{Path: "/", Msg: "document has no root element"}}}
	}
	return v.validateTree(root, nil, ev)
}

// ValidateElementEvents is ValidateElement with an event observer.
func (v *Validator) ValidateElementEvents(el *dom.Element, decl *xsd.ElementDecl, ev StreamEvents) *Result {
	return v.validateTree(el, decl, ev)
}

// validateTree runs the machine over a replay of the tree under root, which
// decl governs (nil: its global declaration), with the namespace
// declarations of root's ancestors in scope.
func (v *Validator) validateTree(root *dom.Element, decl *xsd.ElementDecl, ev StreamEvents) *Result {
	sr := newMachine(v, ev)
	sr.rootDecl = decl
	declareAncestors(&sr.ns, root)
	sr.tree = newTreeSource(root)
	sr.tree.names, sr.symIDs = v.schema.Symbols(), true
	res, _ := sr.consume(context.Background(), sr.tree)
	sr.release()
	return res
}

// treeSource replays a DOM subtree as the token stream a decoder yields
// for its serialization: start tags with their attributes (namespace
// declarations marked), text, CDATA, comments, processing instructions and
// end tags, in document order. It walks the tree through sibling and parent
// links, so it keeps no stack and allocates nothing per node; text payloads
// are handed over without copying.
type treeSource struct {
	root *dom.Element
	// next is the node whose token comes next. When it is nil, up is the
	// element whose end tag comes next, and nil after the root's.
	next  dom.Node
	up    *dom.Element
	attrs []xmlparser.Attr
	// names, when set, is the table whose IDs start tags carry: the
	// schema's Symbols, for a tree parsed through them (Validator.Parse).
	names xmlparser.NameTable
}

func newTreeSource(root *dom.Element) *treeSource {
	return &treeSource{root: root, next: root}
}

// Next fills tok with the next token, or returns io.EOF after the root's
// end tag. The token's attributes are reused by the following call.
func (t *treeSource) Next(tok *xmlparser.Token) error {
	n := t.next
	if n == nil {
		el := t.up
		if el == nil {
			return io.EOF
		}
		*tok = xmlparser.Token{Kind: xmlparser.KindEndElement, Name: el.Name()}
		t.advance(el)
		return nil
	}
	// An element's children are of these five kinds only (dom rejects any
	// other).
	switch x := n.(type) {
	case *dom.Element:
		attrs := t.attrs[:0]
		for _, a := range x.Attributes() {
			name := a.Name()
			attrs = append(attrs, xmlparser.Attr{Name: name, Value: a.Value(), IsNamespaceDecl: name.Space == xmlparser.XMLNSNamespace})
		}
		t.attrs = attrs
		*tok = xmlparser.Token{Kind: xmlparser.KindStartElement, Name: x.Name(), Attrs: attrs}
		if t.names != nil {
			tok.SetSymbolID(x.SymbolID(t.names))
		}
		if first := x.FirstChild(); first != nil {
			t.next = first
		} else {
			t.next, t.up = nil, x
		}
		return nil
	case *dom.Text:
		*tok = xmlparser.Token{Kind: xmlparser.KindText}
		tok.SetData(x.Data)
	case *dom.CDATASection:
		*tok = xmlparser.Token{Kind: xmlparser.KindCData}
		tok.SetData(x.Data)
	case *dom.Comment:
		*tok = xmlparser.Token{Kind: xmlparser.KindComment}
		tok.SetData(x.Data)
	case *dom.ProcessingInstruction:
		*tok = xmlparser.Token{Kind: xmlparser.KindProcInst, Target: x.Target}
		tok.SetData(x.Data)
	}
	t.advance(n)
	return nil
}

// advance moves past n, whose subtree has been replayed.
func (t *treeSource) advance(n dom.Node) {
	if n == dom.Node(t.root) {
		t.next, t.up = nil, nil
		return
	}
	if s := n.NextSibling(); s != nil {
		t.next = s
		return
	}
	t.next, t.up = nil, n.ParentNode().(*dom.Element)
}

// declareAncestors pushes the namespace declarations of el's ancestors onto
// ns, outermost first, so a subtree validated on its own resolves prefixes
// as it would in place.
func declareAncestors(ns *xmlparser.Bindings, el *dom.Element) {
	var up []*dom.Element
	for n := el.ParentNode(); n != nil; n = n.ParentNode() {
		if e, ok := n.(*dom.Element); ok {
			up = append(up, e)
		}
	}
	for i := len(up) - 1; i >= 0; i-- {
		for _, a := range up[i].Attributes() {
			if n := a.Name(); n.Space == xmlparser.XMLNSNamespace {
				ns.Push(declaredPrefix(n), a.Value())
			}
		}
	}
}
