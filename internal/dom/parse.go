package dom

import (
	"fmt"

	"repro/internal/xmlparser"
)

// Parse parses an XML document into a DOM tree.
func Parse(src []byte) (*Document, error) {
	return parseWith(src, nil)
}

// ParseString is a convenience wrapper around Parse.
func ParseString(src string) (*Document, error) { return Parse([]byte(src)) }

// ParseWithOptions parses with explicit parser options (e.g. fragment mode
// or extra entities).
func ParseWithOptions(src []byte, opts *xmlparser.Options) (*Document, error) {
	return parseWith(src, opts)
}

func parseWith(src []byte, opts *xmlparser.Options) (_ *Document, err error) {
	dec := xmlparser.NewDecoder(src, opts)
	namespaces := opts == nil || opts.Namespaces
	// Parsed documents draw their nodes from the pooled slab arena; callers
	// on hot parse-validate-discard loops may Release them when done. On
	// parse failure no node escapes, so the slabs go straight back.
	doc := NewPooledDocument()
	defer func() {
		if err != nil {
			doc.Release()
		}
	}()
	var cur Node = doc
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if tok == nil {
			return doc, nil
		}
		switch {
		case tok.Kind == xmlparser.KindXMLDecl:
			doc.Version = pseudoAttr(tok.Data(), "version")
			doc.Encoding = pseudoAttr(tok.Data(), "encoding")
		case tok.Kind == xmlparser.KindDoctype:
			dt := &DocumentType{Name: tok.Name.Local, ExternalID: tok.Target, InternalSubset: tok.Data()}
			dt.self = dt
			dt.doc = doc
			doc.Doctype = dt
			if _, err := cur.AppendChild(dt); err != nil {
				return nil, err
			}
		case tok.Kind == xmlparser.KindEndElement:
			cur = cur.ParentNode()
		case tok.Kind == xmlparser.KindStartElement && !namespaces:
			// Unresolved names may still collide on {"", Local} (a:x,
			// b:x): SetAttributeNS keeps the last one.
			e := doc.CreateElementNS(tok.Name.Space, tok.Name.Qualified())
			for _, a := range tok.Attrs {
				e.SetAttributeNS(a.Name.Space, a.Name.Qualified(), a.Value)
			}
			if _, err := cur.AppendChild(e); err != nil {
				return nil, fmt.Errorf("at %s: %w", tok.Pos, err)
			}
			cur = e
		case tok.Kind == xmlparser.KindText && cur == Node(doc) && isAllSpace(tok.Data()):
			// Fragment mode: top-level whitespace gets no node; documents
			// never reach here with text.
		default:
			if cur, err = doc.AppendToken(cur, tok); err != nil {
				return nil, err
			}
		}
	}
}

// AppendToken appends the node a token maps to under parent and returns
// the node later tokens append to: the new element for a start tag,
// parent otherwise. A start tag becomes an element with its resolved
// names (namespace declarations stay ordinary attributes, so serialization
// round-trips); text (unless empty), CDATA, comments and processing
// instructions become their node kinds. Other tokens append nothing.
func (d *Document) AppendToken(parent Node, tok *xmlparser.Token) (Node, error) {
	var n Node
	switch tok.Kind {
	case xmlparser.KindStartElement:
		n = d.CreateElementResolved(tok.Name, tok.Attrs)
	case xmlparser.KindText:
		if tok.Data() == "" {
			return parent, nil
		}
		n = d.CreateTextNode(tok.Data())
	case xmlparser.KindCData:
		n = d.CreateCDATASection(tok.Data())
	case xmlparser.KindComment:
		n = d.CreateComment(tok.Data())
	case xmlparser.KindProcInst:
		n = d.CreateProcessingInstruction(tok.Target, tok.Data())
	default:
		return parent, nil
	}
	if _, err := parent.AppendChild(n); err != nil {
		return parent, fmt.Errorf("at %s: %w", tok.Pos, err)
	}
	if tok.Kind == xmlparser.KindStartElement {
		return n, nil
	}
	return parent, nil
}

// CreateElementResolved creates an element from a start tag as the
// tokenizer reports it with namespaces on: every name is split and every
// attribute's {Space, Local} is unique on the tag, so the attributes are
// appended as given, without SetAttributeNS's replace scan.
func (d *Document) CreateElementResolved(name Name, attrs []xmlparser.Attr) *Element {
	e := d.newElement(name)
	for i := range attrs {
		e.appendAttr(attrs[i].Name, attrs[i].Value)
	}
	return e
}

func isAllSpace(s string) bool {
	for _, r := range s {
		if !xmlparser.IsSpace(r) {
			return false
		}
	}
	return true
}

// pseudoAttr extracts name="value" from XML declaration text.
func pseudoAttr(s, name string) string {
	attrs, err := xmlparser.ParsePseudoAttrs(s)
	if err != nil {
		return ""
	}
	return attrs[name]
}
