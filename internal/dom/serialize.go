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
		s.w.WriteString(EscapeText(x.Data))
	case *CDATASection:
		// Split any embedded "]]>" across sections.
		data := strings.ReplaceAll(x.Data, "]]>", "]]]]><![CDATA[>")
		s.w.WriteString("<![CDATA[" + data + "]]>")
	case *Comment:
		s.w.WriteString("<!--" + x.Data + "-->")
	case *ProcessingInstruction:
		s.w.WriteString("<?" + x.Target)
		if x.Data != "" {
			s.w.WriteString(" " + x.Data)
		}
		s.w.WriteString("?>")
	case *DocumentFragment:
		for _, c := range x.ChildNodes() {
			s.node(c, depth)
		}
	case *Attr:
		s.w.WriteString(x.NodeName() + `="` + EscapeAttr(x.Value()) + `"`)
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
	s.w.WriteString("<" + e.TagName())
	for _, a := range e.Attributes() {
		s.w.WriteString(" " + a.NodeName() + `="` + EscapeAttr(a.Value()) + `"`)
	}
	kids := e.ChildNodes()
	if len(kids) == 0 {
		if s.opts.ExpandEmpty {
			s.w.WriteString("></" + e.TagName() + ">")
		} else {
			s.w.WriteString("/>")
		}
		return
	}
	s.w.WriteString(">")
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
	s.w.WriteString("</" + e.TagName() + ">")
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
