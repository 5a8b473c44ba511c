package vdom

import (
	"sync"

	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// Writer is the byte sink generated code writes a typed tree into, with
// the markup helpers the DOM serializer uses. The start tag of the
// innermost element stays open for attributes until content follows.
// The namespace rule lives here and nowhere else: an element declares
// the default namespace (xmlns="…", or xmlns="" for an element in no
// namespace) exactly when its own namespace differs from the one in
// scope.
type Writer struct {
	buf   []byte
	open  []openElem // the elements started and not yet ended
	inTag bool       // the last start tag is not closed yet
}

// openElem is an open element's name; its namespace is the default
// namespace in scope inside it.
type openElem struct{ space, local string }

var (
	xmlnsName   = xmlparser.Name{Local: "xmlns"}
	xmlnsXSI    = xmlparser.Name{Prefix: "xmlns", Local: "xsi"}
	xsiTypeName = xmlparser.Name{Prefix: "xsi", Local: "type"}
)

var writers = sync.Pool{New: func() any { return new(Writer) }}

// AppendXML appends the XML text of a typed tree to dst. On a violated
// constraint it returns dst and the error.
func AppendXML(dst []byte, root ElementNode) ([]byte, error) {
	w := writers.Get().(*Writer)
	w.buf = dst
	err := root.WriteXML(w)
	b := w.buf
	w.buf, w.open, w.inTag = nil, w.open[:0], false
	writers.Put(w)
	if err != nil {
		return dst, err
	}
	return b, nil
}

// Start opens the element {space}local.
func (w *Writer) Start(space, local string) {
	w.closeTag()
	w.buf = xmlparser.AppendName(append(w.buf, '<'), xmlparser.Name{Local: local})
	scope := ""
	if n := len(w.open); n > 0 {
		scope = w.open[n-1].space
	}
	if space != scope {
		w.buf = xmlparser.AppendAttr(w.buf, xmlnsName, space)
	}
	w.open = append(w.open, openElem{space, local})
	w.inTag = true
}

// Attr writes an unqualified attribute into the open start tag.
func (w *Writer) Attr(local, value string) {
	w.buf = xmlparser.AppendAttr(w.buf, xmlparser.Name{Local: local}, value)
}

// XSIType writes xsi:type, with its namespace declaration, into the open
// start tag: a derived type's value fills a base-typed slot (paper §3,
// type extension).
func (w *Writer) XSIType(typeName string) {
	w.buf = xmlparser.AppendAttr(w.buf, xmlnsXSI, xsd.XSINamespace)
	w.buf = xmlparser.AppendAttr(w.buf, xsiTypeName, typeName)
}

// Text writes character data; even an empty run closes the start tag.
func (w *Writer) Text(s string) {
	w.closeTag()
	w.buf, _ = xmlparser.AppendEscaped(w.buf, s, false)
}

// Raw writes a raw DOM element (a wildcard or xs:anyType child) as the
// DOM serializer writes it.
func (w *Writer) Raw(el *dom.Element) {
	w.closeTag()
	_ = dom.Serialize((*rawSink)(w), el, nil) // a rawSink write never fails
}

// End closes the innermost open element, as <e/> when it has no content.
func (w *Writer) End() {
	n := len(w.open) - 1
	if w.inTag {
		w.buf = append(w.buf, "/>"...)
		w.inTag = false
	} else {
		w.buf = xmlparser.AppendEndTag(w.buf, xmlparser.Name{Local: w.open[n].local})
	}
	w.open = w.open[:n]
}

// Depth returns the number of open elements.
func (w *Writer) Depth() int { return len(w.open) }

func (w *Writer) closeTag() {
	if w.inTag {
		w.buf = append(w.buf, '>')
		w.inTag = false
	}
}

// rawSink lets the DOM serializer append to a Writer's buffer.
type rawSink Writer

func (s *rawSink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}
