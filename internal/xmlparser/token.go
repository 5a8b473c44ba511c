package xmlparser

import (
	"fmt"
	"unsafe"
)

// Kind identifies the kind of a Token.
type Kind int

// Token kinds.
const (
	// KindStartElement is a start tag or the start of a self-closing tag.
	KindStartElement Kind = iota
	// KindEndElement is an end tag, or synthesized for a self-closing tag.
	KindEndElement
	// KindText is character data (entity and character references resolved).
	KindText
	// KindCData is the content of a CDATA section.
	KindCData
	// KindComment is the body of a comment (without delimiters).
	KindComment
	// KindProcInst is a processing instruction.
	KindProcInst
	// KindDoctype is a document type declaration.
	KindDoctype
	// KindXMLDecl is the XML declaration (<?xml version=...?>).
	KindXMLDecl
)

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	switch k {
	case KindStartElement:
		return "StartElement"
	case KindEndElement:
		return "EndElement"
	case KindText:
		return "Text"
	case KindCData:
		return "CData"
	case KindComment:
		return "Comment"
	case KindProcInst:
		return "ProcInst"
	case KindDoctype:
		return "Doctype"
	case KindXMLDecl:
		return "XMLDecl"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Pos is a position in the input document.
type Pos struct {
	Line   int // 1-based line number
	Col    int // 1-based column (in runes)
	Offset int // 0-based byte offset
}

// String formats the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Name is a possibly namespace-qualified name.
type Name struct {
	Space  string // resolved namespace URI, empty if none
	Prefix string // prefix as written, empty if none
	Local  string // local part
}

// String returns the name in Clark notation ({uri}local) when it has a
// namespace, and the plain local name otherwise.
func (n Name) String() string {
	if n.Space != "" {
		return "{" + n.Space + "}" + n.Local
	}
	return n.Local
}

// Qualified returns the lexical qualified name (prefix:local or local).
func (n Name) Qualified() string {
	if n.Prefix != "" {
		return n.Prefix + ":" + n.Local
	}
	return n.Local
}

// Attr is an attribute appearing in a start tag.
type Attr struct {
	Name  Name
	Value string // normalized per XML 1.0 §3.3.3
	Pos   Pos
	// IsNamespaceDecl reports whether this attribute is an xmlns or
	// xmlns:prefix declaration. Namespace declarations are reported so
	// that serializers can round-trip them.
	IsNamespaceDecl bool
}

// Token is one parse event.
//
// The decoder fills tokens in place: Decoder.Next overwrites every field
// of the caller's Token, and Decoder.Token refills the decoder's scratch
// slot. A filled token is a view into the decoder's buffers: the text
// payload (Bytes) and the Attrs slice are only valid until the next
// Token/Next call. Callers that retain tokens across calls must copy and
// Detach them first (Parse and friends do). Data materializes the payload
// as a string on demand, caching the result.
type Token struct {
	Kind Kind
	Name Name // element name for KindStartElement / KindEndElement

	// data and str hold the token's text payload — character data for
	// KindText/KindCData, comment body, PI data, doctype internal subset.
	// Hot tokens (text, CDATA) carry data as a zero-copy byte view; str
	// is the lazily materialized (and cached) string form. d is the
	// owning decoder, used to intern materialized strings; it is nil for
	// detached tokens.
	data  []byte
	str   string
	strOK bool
	d     *Decoder

	// Target is the processing-instruction target for KindProcInst.
	Target string
	// Attrs are the attributes of a start element, in document order.
	Attrs []Attr
	// SelfClosing marks a KindStartElement that was written as <e/>. A
	// matching KindEndElement token is still emitted.
	SelfClosing bool
	// Pos is the position of the first character of the token.
	Pos Pos

	// sym is 1 + the ID Options.Names gave a start tag's name, 0 for none.
	sym int32
}

// set makes t a fresh token of the given kind, name and position. It
// assigns every field, so a token filled in place keeps nothing of the
// token it held before; the caller then sets the kind's own fields.
func (t *Token) set(kind Kind, name Name, p Pos) {
	t.Kind, t.Name, t.Pos = kind, name, p
	t.data, t.str, t.strOK, t.d = nil, "", false, nil
	t.Target, t.Attrs, t.SelfClosing, t.sym = "", nil, false, 0
}

// SymbolID returns the ID the decoder's name table (Options.Names) held
// for a start tag's resolved name when the tag was read, or -1 when it held
// none or the decoder has no table.
func (t *Token) SymbolID() int32 { return t.sym - 1 }

// SetSymbolID sets the ID SymbolID reports; -1 clears it. Token sources
// other than a Decoder use it to pass on an ID they memoized.
func (t *Token) SetSymbolID(id int32) { t.sym = id + 1 }

// Data returns the token's text payload as a string, materializing (and
// interning, when the token is still attached to its decoder) on first
// use. Token streams that never look at character data never pay for
// string conversion.
func (t *Token) Data() string {
	if !t.strOK {
		if t.d != nil {
			t.str = t.d.internBytes(t.data)
		} else {
			t.str = string(t.data)
		}
		t.strOK = true
	}
	return t.str
}

// Bytes returns the token's text payload without copying or string
// conversion. For KindText and KindCData tokens this is a zero-copy view
// of the decoder's input window (or assembly buffer), valid only until
// the next Token/Next call on the decoder. A payload set with SetData is
// returned as a view of the string's bytes. Callers must not modify the
// returned bytes.
func (t *Token) Bytes() []byte {
	if t.data != nil || !t.strOK {
		return t.data
	}
	return unsafe.Slice(unsafe.StringData(t.str), len(t.str))
}

// SetData replaces the token's text payload with s.
func (t *Token) SetData(s string) {
	t.str, t.strOK, t.data = s, true, nil
}

// SetBytes replaces the token's text payload with a view of b, without
// copying: Bytes returns b itself, and Data materializes it on first use.
// The caller keeps b unchanged for as long as the token is in use, as a
// Decoder does for the tokens it returns.
func (t *Token) SetBytes(b []byte) {
	t.data, t.str, t.strOK, t.d = b, "", false, nil
}

// Detach makes the token independent of the decoder's internal buffers:
// the payload is materialized and the attribute slice is copied. Callers
// that keep tokens beyond the next Token/Next call (Parse does) must
// detach them.
func (t *Token) Detach() {
	t.Data()
	t.data = nil
	t.d = nil
	if len(t.Attrs) > 0 {
		t.Attrs = append([]Attr(nil), t.Attrs...)
	}
}

// Attr returns the value of the named attribute and whether it is present.
// Only the local name and namespace are compared.
func (t *Token) Attr(space, local string) (string, bool) {
	for i := range t.Attrs {
		a := &t.Attrs[i]
		if a.Name.Local == local && a.Name.Space == space {
			return a.Value, true
		}
	}
	return "", false
}

// SyntaxError is a well-formedness or syntax error with position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml: %s at %s", e.Msg, e.Pos)
}
