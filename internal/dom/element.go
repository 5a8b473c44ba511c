package dom

import "repro/internal/xmlparser"

// Element is an XML element node with ordered, namespace-aware attributes.
type Element struct {
	node
	name  Name
	attrs []*Attr
}

// NodeType implements Node.
func (e *Element) NodeType() NodeType { return ElementNode }

// NodeName implements Node; it returns the qualified tag name.
func (e *Element) NodeName() string { return e.name.Qualified() }

// NodeValue implements Node.
func (e *Element) NodeValue() string { return "" }

// TagName returns the qualified tag name (prefix:local).
func (e *Element) TagName() string { return e.name.Qualified() }

// Name returns the full namespace-resolved name.
func (e *Element) Name() Name { return e.name }

// SymbolID returns the ID of the element's name in t when the parse that
// built the element read names through t (xmlparser.Options.Names) and t
// held the name, and -1 otherwise.
func (e *Element) SymbolID(t xmlparser.NameTable) int32 {
	if e.sym == 0 || e.doc.names != t {
		return -1
	}
	return e.sym - 1
}

// LocalName returns the local part of the element name.
func (e *Element) LocalName() string { return e.name.Local }

// NamespaceURI returns the element's namespace URI ("" if none).
func (e *Element) NamespaceURI() string { return e.name.Space }

// Attributes returns the attributes in document order. The slice is the
// live backing store and must not be mutated by callers.
func (e *Element) Attributes() []*Attr { return e.attrs }

// findAttr locates an attribute by namespace and local name.
func (e *Element) findAttr(ns, local string) int {
	for i, a := range e.attrs {
		if a.name.Local == local && a.name.Space == ns {
			return i
		}
	}
	return -1
}

// GetAttribute returns the value of the no-namespace attribute named local,
// or "" when absent.
func (e *Element) GetAttribute(local string) string {
	return e.GetAttributeNS("", local)
}

// GetAttributeNS returns the value of the attribute {ns}local, or "".
func (e *Element) GetAttributeNS(ns, local string) string {
	if i := e.findAttr(ns, local); i >= 0 {
		return e.attrs[i].value
	}
	return ""
}

// HasAttribute reports whether the no-namespace attribute exists.
func (e *Element) HasAttribute(local string) bool {
	return e.findAttr("", local) >= 0
}

// HasAttributeNS reports whether the attribute {ns}local exists.
func (e *Element) HasAttributeNS(ns, local string) bool {
	return e.findAttr(ns, local) >= 0
}

// SetAttribute sets a no-namespace attribute.
func (e *Element) SetAttribute(qname, value string) {
	e.SetAttributeNS("", qname, value)
}

// SetAttributeNS sets (or replaces) the attribute {ns}qname.
func (e *Element) SetAttributeNS(ns, qname, value string) {
	n := parseQName(ns, qname)
	if i := e.findAttr(n.Space, n.Local); i >= 0 {
		e.attrs[i].value = value
		e.attrs[i].name.Prefix = n.Prefix
		return
	}
	e.appendAttr(n, value)
}

// appendAttr adds an attribute the caller knows is not present yet.
func (e *Element) appendAttr(n Name, value string) {
	var a *Attr
	if e.doc != nil && e.doc.arena != nil {
		a = e.doc.arena.newAttr()
	} else {
		a = &Attr{}
	}
	a.owner = e
	a.self = a
	a.doc = e.doc
	a.name = n
	a.value = value
	e.attrs = append(e.attrs, a)
}

// RemoveAttribute removes the no-namespace attribute, if present.
func (e *Element) RemoveAttribute(local string) { e.RemoveAttributeNS("", local) }

// RemoveAttributeNS removes the attribute {ns}local, if present.
func (e *Element) RemoveAttributeNS(ns, local string) {
	if i := e.findAttr(ns, local); i >= 0 {
		e.attrs[i].owner = nil
		e.attrs = append(e.attrs[:i], e.attrs[i+1:]...)
	}
}

// GetAttributeNode returns the attribute node {ns}local, or nil.
func (e *Element) GetAttributeNode(ns, local string) *Attr {
	if i := e.findAttr(ns, local); i >= 0 {
		return e.attrs[i]
	}
	return nil
}

// ChildElements returns the element children, skipping text, comments, PIs.
func (e *Element) ChildElements() []*Element {
	var out []*Element
	for _, c := range e.children {
		if ce, ok := c.(*Element); ok {
			out = append(out, ce)
		}
	}
	return out
}

// FirstChildElement returns the first element child with the given local
// name ("" matches any), or nil.
func (e *Element) FirstChildElement(local string) *Element {
	for _, c := range e.children {
		if ce, ok := c.(*Element); ok && (local == "" || ce.name.Local == local) {
			return ce
		}
	}
	return nil
}

// GetElementsByTagName returns descendant elements with the given tag name.
func (e *Element) GetElementsByTagName(tag string) []*Element {
	return elementsByTagName(e, "", tag, false)
}

// GetElementsByTagNameNS is the namespace-aware variant.
func (e *Element) GetElementsByTagNameNS(ns, local string) []*Element {
	return elementsByTagName(e, ns, local, true)
}

// CloneNode implements Node.
func (e *Element) CloneNode(deep bool) Node {
	c := e.doc.CreateElementNS(e.name.Space, e.name.Qualified())
	for _, a := range e.attrs {
		c.SetAttributeNS(a.name.Space, a.name.Qualified(), a.value)
	}
	if deep {
		cloneChildrenInto(c, e)
	}
	return c
}

// Attr is an attribute node. Attributes are not children of their element;
// they are reached through the element's attribute list, as in DOM.
type Attr struct {
	node
	name  Name
	value string
	owner *Element
}

// NodeType implements Node.
func (a *Attr) NodeType() NodeType { return AttributeNode }

// NodeName implements Node; it returns the qualified attribute name.
func (a *Attr) NodeName() string { return a.name.Qualified() }

// NodeValue implements Node.
func (a *Attr) NodeValue() string { return a.value }

// Name returns the full attribute name.
func (a *Attr) Name() Name { return a.name }

// Value returns the attribute value.
func (a *Attr) Value() string { return a.value }

// SetValue updates the attribute value.
func (a *Attr) SetValue(v string) { a.value = v }

// OwnerElement returns the element holding this attribute, or nil.
func (a *Attr) OwnerElement() *Element { return a.owner }

// CloneNode implements Node.
func (a *Attr) CloneNode(bool) Node {
	c := a.doc.CreateAttributeNS(a.name.Space, a.name.Qualified())
	c.value = a.value
	return c
}

// Text is a character-data node.
type Text struct {
	node
	// Data is the text content.
	Data string
}

// NodeType implements Node.
func (t *Text) NodeType() NodeType { return TextNode }

// NodeName implements Node.
func (t *Text) NodeName() string { return "#text" }

// NodeValue implements Node.
func (t *Text) NodeValue() string { return t.Data }

// CloneNode implements Node.
func (t *Text) CloneNode(bool) Node { return t.doc.CreateTextNode(t.Data) }

// CDATASection is a CDATA node.
type CDATASection struct {
	node
	// Data is the section content.
	Data string
}

// NodeType implements Node.
func (c *CDATASection) NodeType() NodeType { return CDATASectionNode }

// NodeName implements Node.
func (c *CDATASection) NodeName() string { return "#cdata-section" }

// NodeValue implements Node.
func (c *CDATASection) NodeValue() string { return c.Data }

// CloneNode implements Node.
func (c *CDATASection) CloneNode(bool) Node { return c.doc.CreateCDATASection(c.Data) }

// Comment is a comment node.
type Comment struct {
	node
	// Data is the comment body.
	Data string
}

// NodeType implements Node.
func (c *Comment) NodeType() NodeType { return CommentNode }

// NodeName implements Node.
func (c *Comment) NodeName() string { return "#comment" }

// NodeValue implements Node.
func (c *Comment) NodeValue() string { return c.Data }

// CloneNode implements Node.
func (c *Comment) CloneNode(bool) Node { return c.doc.CreateComment(c.Data) }

// ProcessingInstruction is a PI node.
type ProcessingInstruction struct {
	node
	// Target is the PI target.
	Target string
	// Data is the PI body.
	Data string
}

// NodeType implements Node.
func (p *ProcessingInstruction) NodeType() NodeType { return ProcessingInstructionNode }

// NodeName implements Node.
func (p *ProcessingInstruction) NodeName() string { return p.Target }

// NodeValue implements Node.
func (p *ProcessingInstruction) NodeValue() string { return p.Data }

// CloneNode implements Node.
func (p *ProcessingInstruction) CloneNode(bool) Node {
	return p.doc.CreateProcessingInstruction(p.Target, p.Data)
}
