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
		switch tok.Kind {
		case xmlparser.KindXMLDecl:
			doc.Version = pseudoAttr(tok.Data(), "version")
			doc.Encoding = pseudoAttr(tok.Data(), "encoding")
		case xmlparser.KindDoctype:
			dt := &DocumentType{Name: tok.Name.Local, ExternalID: tok.Target, InternalSubset: tok.Data()}
			dt.self = dt
			dt.doc = doc
			doc.Doctype = dt
			if _, err := cur.AppendChild(dt); err != nil {
				return nil, err
			}
		case xmlparser.KindStartElement:
			// Namespace declarations are kept as ordinary attributes so
			// serialization round-trips.
			var e *Element
			if namespaces {
				e = doc.CreateElementResolved(tok.Name, tok.Attrs)
			} else {
				// Unresolved names may still collide on {"", Local}
				// (a:x, b:x): SetAttributeNS keeps the last one.
				e = doc.CreateElementNS(tok.Name.Space, tok.Name.Qualified())
				for _, a := range tok.Attrs {
					e.SetAttributeNS(a.Name.Space, a.Name.Qualified(), a.Value)
				}
			}
			if _, err := cur.AppendChild(e); err != nil {
				return nil, fmt.Errorf("at %s: %w", tok.Pos, err)
			}
			cur = e
		case xmlparser.KindEndElement:
			cur = cur.ParentNode()
		case xmlparser.KindText:
			if cur == Node(doc) {
				// Fragment mode: attach top-level text only if
				// non-empty after the parser allowed it; documents
				// never reach here with text.
				if isAllSpace(tok.Data()) {
					continue
				}
			}
			if tok.Data() == "" {
				continue
			}
			if _, err := cur.AppendChild(doc.CreateTextNode(tok.Data())); err != nil {
				return nil, fmt.Errorf("at %s: %w", tok.Pos, err)
			}
		case xmlparser.KindCData:
			if _, err := cur.AppendChild(doc.CreateCDATASection(tok.Data())); err != nil {
				return nil, fmt.Errorf("at %s: %w", tok.Pos, err)
			}
		case xmlparser.KindComment:
			if _, err := cur.AppendChild(doc.CreateComment(tok.Data())); err != nil {
				return nil, fmt.Errorf("at %s: %w", tok.Pos, err)
			}
		case xmlparser.KindProcInst:
			if _, err := cur.AppendChild(doc.CreateProcessingInstruction(tok.Target, tok.Data())); err != nil {
				return nil, fmt.Errorf("at %s: %w", tok.Pos, err)
			}
		}
	}
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
