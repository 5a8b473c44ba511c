package dom

import (
	"errors"
	"fmt"

	"repro/internal/xmlparser"
)

// NodeType identifies the concrete kind of a Node, mirroring DOM Level 1.
type NodeType int

// Node types (values match DOM Level 1).
const (
	ElementNode NodeType = iota + 1
	AttributeNode
	TextNode
	CDATASectionNode
	_ // EntityReferenceNode: unsupported
	_ // EntityNode: unsupported
	ProcessingInstructionNode
	CommentNode
	DocumentNode
	DocumentTypeNode
	DocumentFragmentNode
)

// String returns the DOM interface name of the node type.
func (t NodeType) String() string {
	switch t {
	case ElementNode:
		return "Element"
	case AttributeNode:
		return "Attr"
	case TextNode:
		return "Text"
	case CDATASectionNode:
		return "CDATASection"
	case ProcessingInstructionNode:
		return "ProcessingInstruction"
	case CommentNode:
		return "Comment"
	case DocumentNode:
		return "Document"
	case DocumentTypeNode:
		return "DocumentType"
	case DocumentFragmentNode:
		return "DocumentFragment"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Hierarchy errors returned by tree mutations.
var (
	ErrHierarchy     = errors.New("dom: hierarchy request error")
	ErrWrongDocument = errors.New("dom: node belongs to a different document")
	ErrNotFound      = errors.New("dom: node not found")
)

// Node is the common interface of all tree nodes.
type Node interface {
	// NodeType returns the concrete node kind.
	NodeType() NodeType
	// NodeName returns the DOM nodeName (tag name, "#text", ...).
	NodeName() string
	// NodeValue returns the DOM nodeValue (text data, attr value, ...).
	NodeValue() string
	// ParentNode returns the parent, or nil.
	ParentNode() Node
	// ChildNodes returns the children in document order. The returned
	// slice is the live backing store and must not be mutated by callers.
	ChildNodes() []Node
	// FirstChild returns the first child or nil.
	FirstChild() Node
	// LastChild returns the last child or nil.
	LastChild() Node
	// PreviousSibling returns the sibling before this node, or nil.
	PreviousSibling() Node
	// NextSibling returns the sibling after this node, or nil.
	NextSibling() Node
	// OwnerDocument returns the document this node belongs to (nil for a
	// Document itself).
	OwnerDocument() *Document
	// HasChildNodes reports whether the node has any children.
	HasChildNodes() bool
	// AppendChild appends newChild, removing it from its old parent
	// first, and returns it.
	AppendChild(newChild Node) (Node, error)
	// InsertBefore inserts newChild before ref (or appends when ref is
	// nil) and returns it.
	InsertBefore(newChild, ref Node) (Node, error)
	// RemoveChild detaches oldChild and returns it.
	RemoveChild(oldChild Node) (Node, error)
	// ReplaceChild replaces oldChild with newChild and returns oldChild.
	ReplaceChild(newChild, oldChild Node) (Node, error)
	// CloneNode copies the node; deep copies the subtree too.
	CloneNode(deep bool) Node
	// TextContent returns the concatenated text of all descendant text
	// and CDATA nodes.
	TextContent() string

	base() *node
}

// node is the shared implementation embedded by all concrete node types.
type node struct {
	self     Node // the concrete node embedding this base
	doc      *Document
	parent   Node
	children []Node
	index    int32 // position within parent.children
	// sym is an element's: 1 + the ID the document's name table gave its
	// name (Element.SymbolID), or 0. It sits beside index, where it costs
	// no space.
	sym int32
}

func (n *node) base() *node         { return n }
func (n *node) ParentNode() Node    { return n.parent }
func (n *node) ChildNodes() []Node  { return n.children }
func (n *node) HasChildNodes() bool { return len(n.children) > 0 }

func (n *node) FirstChild() Node {
	if len(n.children) == 0 {
		return nil
	}
	return n.children[0]
}

func (n *node) LastChild() Node {
	if len(n.children) == 0 {
		return nil
	}
	return n.children[len(n.children)-1]
}

func (n *node) PreviousSibling() Node {
	if n.parent == nil {
		return nil
	}
	sibs := n.parent.base().children
	if n.index <= 0 || int(n.index) >= len(sibs) {
		return nil
	}
	return sibs[n.index-1]
}

func (n *node) NextSibling() Node {
	if n.parent == nil {
		return nil
	}
	sibs := n.parent.base().children
	if n.index < 0 || int(n.index)+1 >= len(sibs) {
		return nil
	}
	return sibs[n.index+1]
}

func (n *node) OwnerDocument() *Document {
	if n.self != nil {
		if d, ok := n.self.(*Document); ok {
			_ = d
			return nil
		}
	}
	return n.doc
}

// reindex renumbers children starting at from.
func (n *node) reindex(from int) {
	for i := from; i < len(n.children); i++ {
		n.children[i].base().index = int32(i)
	}
}

// canContain reports whether parent may hold a child of type ct.
func canContain(parent Node, child Node) error {
	ct := child.NodeType()
	switch parent.NodeType() {
	case DocumentNode:
		switch ct {
		case ElementNode:
			d := parent.(*Document)
			if root := d.DocumentElement(); root != nil && root != child {
				return fmt.Errorf("%w: document already has a root element", ErrHierarchy)
			}
			return nil
		case CommentNode, ProcessingInstructionNode, DocumentTypeNode:
			return nil
		default:
			return fmt.Errorf("%w: %v cannot be a document child", ErrHierarchy, ct)
		}
	case ElementNode, DocumentFragmentNode:
		switch ct {
		case ElementNode, TextNode, CDATASectionNode, CommentNode, ProcessingInstructionNode:
			return nil
		default:
			return fmt.Errorf("%w: %v cannot be an element child", ErrHierarchy, ct)
		}
	default:
		return fmt.Errorf("%w: %v cannot have children", ErrHierarchy, parent.NodeType())
	}
}

// checkInsert validates document ownership, containment rules and cycles.
func (n *node) checkInsert(newChild Node) error {
	if newChild == nil {
		return fmt.Errorf("%w: nil child", ErrHierarchy)
	}
	nd := newChild.OwnerDocument()
	var selfDoc *Document
	if d, ok := n.self.(*Document); ok {
		selfDoc = d
	} else {
		selfDoc = n.doc
	}
	if nd != nil && selfDoc != nil && nd != selfDoc {
		return ErrWrongDocument
	}
	if err := canContain(n.self, newChild); err != nil {
		return err
	}
	// Cycle check: newChild must not be this node or an ancestor of it. A
	// childless node is nobody's ancestor, so only the node itself can
	// match — every node a parse appends is fresh, and skips the walk.
	if !newChild.HasChildNodes() {
		if newChild == n.self {
			return fmt.Errorf("%w: insertion would create a cycle", ErrHierarchy)
		}
		return nil
	}
	for a := n.self; a != nil; a = a.ParentNode() {
		if a == newChild {
			return fmt.Errorf("%w: insertion would create a cycle", ErrHierarchy)
		}
	}
	return nil
}

// detach removes child from its current parent, if any.
func detach(child Node) {
	b := child.base()
	if b.parent == nil {
		return
	}
	pb := b.parent.base()
	pb.children = append(pb.children[:b.index], pb.children[b.index+1:]...)
	pb.reindex(int(b.index))
	b.parent = nil
	b.index = 0
}

func (n *node) AppendChild(newChild Node) (Node, error) {
	return n.insertAt(newChild, len(n.children))
}

func (n *node) InsertBefore(newChild, ref Node) (Node, error) {
	if ref == nil {
		return n.AppendChild(newChild)
	}
	rb := ref.base()
	if rb.parent != n.self {
		return nil, fmt.Errorf("%w: reference node is not a child", ErrNotFound)
	}
	return n.insertAt(newChild, int(rb.index))
}

// insertAt performs the checked insertion, expanding fragments.
func (n *node) insertAt(newChild Node, at int) (Node, error) {
	if newChild != nil && newChild.NodeType() == DocumentFragmentNode {
		// Insert the fragment's children, leaving the fragment empty.
		kids := append([]Node(nil), newChild.ChildNodes()...)
		for _, k := range kids {
			if err := n.base().checkInsert(k); err != nil {
				return nil, err
			}
		}
		for _, k := range kids {
			// If k's parent is the fragment and it precedes 'at' in
			// this node... it cannot: the fragment is a different
			// parent, so positions are independent.
			detach(k)
			if _, err := n.insertAt(k, at); err != nil {
				return nil, err
			}
			at++
		}
		return newChild, nil
	}
	if err := n.checkInsert(newChild); err != nil {
		return nil, err
	}
	cb := newChild.base()
	if cb.parent == n.self && int(cb.index) < at {
		at-- // removing it first shifts the insertion point
	}
	detach(newChild)
	if at < 0 || at > len(n.children) {
		at = len(n.children)
	}
	n.children = append(n.children, nil)
	copy(n.children[at+1:], n.children[at:])
	n.children[at] = newChild
	cb.parent = n.self
	n.reindex(at)
	return newChild, nil
}

func (n *node) RemoveChild(oldChild Node) (Node, error) {
	if oldChild == nil || oldChild.base().parent != n.self {
		return nil, fmt.Errorf("%w: not a child of this node", ErrNotFound)
	}
	detach(oldChild)
	return oldChild, nil
}

func (n *node) ReplaceChild(newChild, oldChild Node) (Node, error) {
	if oldChild == nil || oldChild.base().parent != n.self {
		return nil, fmt.Errorf("%w: not a child of this node", ErrNotFound)
	}
	at := int(oldChild.base().index)
	detach(oldChild)
	if _, err := n.insertAt(newChild, at); err != nil {
		// Restore oldChild on failure.
		_, _ = n.insertAt(oldChild, at)
		return nil, err
	}
	return oldChild, nil
}

func (n *node) TextContent() string {
	var out []byte
	var walk func(Node)
	walk = func(x Node) {
		switch x.NodeType() {
		case TextNode, CDATASectionNode:
			out = append(out, x.NodeValue()...)
		default:
			for _, c := range x.ChildNodes() {
				walk(c)
			}
		}
	}
	walk(n.self)
	return string(out)
}

// cloneChildrenInto deep-copies the children of src into dst.
func cloneChildrenInto(dst, src Node) {
	for _, c := range src.ChildNodes() {
		cc := c.CloneNode(true)
		_, _ = dst.AppendChild(cc)
	}
}

// Name is re-exported so that dom users need not import xmlparser.
type Name = xmlparser.Name
