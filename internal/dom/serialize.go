package dom

import (
	"io"
	"strings"

	"repro/internal/xmlparser"
)

// SerializeOptions controls XML output.
type SerializeOptions struct {
	// Indent, when non-empty, enables pretty printing with this string
	// per nesting level. Mixed-content elements (those containing
	// non-whitespace text) are never re-indented.
	Indent string
	// OmitXMLDecl suppresses the leading <?xml ...?> declaration.
	OmitXMLDecl bool
	// EmptyElementTags writes childless elements as <e/> (the default is
	// also <e/>; setting ExpandEmpty forces <e></e>).
	ExpandEmpty bool
}

// Serialize writes the node (and its subtree) as XML text.
func Serialize(w io.Writer, n Node, opts *SerializeOptions) error {
	o := SerializeOptions{}
	if opts != nil {
		o = *opts
	}
	s := &serializer{w: &errWriter{w: w}, opts: o}
	s.node(n, 0)
	return s.w.err
}

// ToString serializes a node with default options.
func ToString(n Node) string {
	var sb strings.Builder
	_ = Serialize(&sb, n, nil)
	return sb.String()
}

// ToStringIndent serializes a node pretty-printed with two-space indent.
func ToStringIndent(n Node) string {
	var sb strings.Builder
	_ = Serialize(&sb, n, &SerializeOptions{Indent: "  "})
	return sb.String()
}

// errWriter latches the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) WriteString(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

type serializer struct {
	w    *errWriter
	opts SerializeOptions
	buf  []byte // markup written with the xmlparser helpers
}

// write writes b, the markup s.buf was grown to, and keeps it for reuse.
func (s *serializer) write(b []byte) {
	s.buf = b[:0]
	if s.w.err == nil {
		_, s.w.err = s.w.w.Write(b)
	}
}

func (s *serializer) indent(depth int) {
	if s.opts.Indent == "" {
		return
	}
	s.w.WriteString("\n")
	for i := 0; i < depth; i++ {
		s.w.WriteString(s.opts.Indent)
	}
}

func (s *serializer) node(n Node, depth int) {
	switch x := n.(type) {
	case *Document:
		if !s.opts.OmitXMLDecl {
			s.w.WriteString(`<?xml version="`)
			v := x.Version
			if v == "" {
				v = "1.0"
			}
			s.w.WriteString(v)
			s.w.WriteString(`"`)
			if x.Encoding != "" {
				s.w.WriteString(` encoding="` + x.Encoding + `"`)
			}
			s.w.WriteString("?>")
			if s.opts.Indent != "" {
				s.w.WriteString("\n")
			}
		}
		for i, c := range x.ChildNodes() {
			if i > 0 && s.opts.Indent != "" {
				s.w.WriteString("\n")
			}
			s.node(c, depth)
		}
		if s.opts.Indent != "" {
			s.w.WriteString("\n")
		}
	case *DocumentType:
		s.w.WriteString("<!DOCTYPE " + x.Name)
		if x.ExternalID != "" {
			s.w.WriteString(" " + x.ExternalID)
		}
		if x.InternalSubset != "" {
			s.w.WriteString(" [" + x.InternalSubset + "]")
		}
		s.w.WriteString(">")
	case *Element:
		s.element(x, depth)
	case *Text:
		b, _ := xmlparser.AppendEscaped(s.buf, x.Data, false)
		s.write(b)
	case *CDATASection:
		s.write(xmlparser.AppendCData(s.buf, x.Data))
	case *Comment:
		s.write(xmlparser.AppendComment(s.buf, x.Data))
	case *ProcessingInstruction:
		s.write(xmlparser.AppendProcInst(s.buf, x.Target, x.Data))
	case *DocumentFragment:
		for _, c := range x.ChildNodes() {
			s.node(c, depth)
		}
	case *Attr:
		s.write(xmlparser.AppendAttr(s.buf, x.name, x.value)[1:])
	}
}

// hasMixedText reports whether e directly contains non-whitespace text.
func hasMixedText(e *Element) bool {
	for _, c := range e.ChildNodes() {
		switch t := c.(type) {
		case *Text:
			if !isAllSpace(t.Data) {
				return true
			}
		case *CDATASection:
			return true
		}
	}
	return false
}

func (s *serializer) element(e *Element, depth int) {
	b := xmlparser.AppendName(append(s.buf, '<'), e.name)
	for _, a := range e.attrs {
		b = xmlparser.AppendAttr(b, a.name, a.value)
	}
	kids := e.ChildNodes()
	if len(kids) == 0 {
		if s.opts.ExpandEmpty {
			s.write(xmlparser.AppendEndTag(append(b, '>'), e.name))
		} else {
			s.write(append(b, "/>"...))
		}
		return
	}
	s.write(append(b, '>'))
	pretty := s.opts.Indent != "" && !hasMixedText(e)
	for _, c := range kids {
		if t, ok := c.(*Text); ok && pretty && isAllSpace(t.Data) {
			continue // drop ignorable whitespace when re-indenting
		}
		if pretty {
			s.indent(depth + 1)
		}
		s.node(c, depth+1)
	}
	if pretty {
		s.indent(depth)
	}
	s.write(xmlparser.AppendEndTag(s.buf, e.name))
}

// EscapeText escapes character data for element content.
func EscapeText(s string) string {
	b, _ := xmlparser.AppendEscaped(nil, s, false)
	return string(b)
}

// EscapeAttr escapes an attribute value for double-quoted output.
func EscapeAttr(s string) string {
	b, _ := xmlparser.AppendEscaped(nil, s, true)
	return string(b)
}
