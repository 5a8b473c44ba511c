package bind

// Value → XML. Marshal walks a value tree once. The walk writes the
// document and yields, token by token, what a parser would read back from
// the bytes it wrote; the binder's streaming validator checks each token as
// it is produced. A Value that violates its content model (missing required
// field, wrong choice arm, bad scalar) is therefore an explicit error rather
// than silently invalid XML, and the output is never parsed or walked a
// second time. Serialize is the same walk with no validator attached.
//
// Namespaces are re-prefixed deterministically: the empty namespace stays
// unprefixed, xsi/xsd keep their conventional prefixes, and everything else
// is assigned ns1, ns2, … in first-seen document order, all declared on the
// root. Equal values therefore marshal to byte-equal documents.
//
// Some pieces are known only through their bytes: a raw wildcard fragment,
// a name that is not an NCName, text holding invalid UTF-8 or a character
// XML forbids, a repeated attribute, a namespace the root cannot declare.
// From the first such piece on, the walk finishes writing the document and
// the tokens come from an xmlparser.Decoder over the written bytes, resumed
// where the piece starts. Verdicts and parse errors, positions included,
// are then those of parsing the whole output.

import (
	"fmt"
	"io"

	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// Marshal serializes v as schema-valid XML. The walk that writes the
// document feeds the binder's streaming validator: a tree the schema
// rejects yields an error carrying the first violation, and a tree whose
// output does not parse (a malformed raw fragment, say) the parse error.
func (b *Binder) Marshal(v *Value) ([]byte, error) { return b.AppendMarshal(nil, v) }

// AppendMarshal appends v marshaled as in Marshal to dst and returns the
// extended buffer, so a caller that sizes dst once gets the document
// without regrowing it. On error it returns dst unextended.
func (b *Binder) AppendMarshal(dst []byte, v *Value) ([]byte, error) {
	if v == nil {
		return dst, fmt.Errorf("bind: cannot marshal a nil value")
	}
	e := newEncoder(v, true)
	e.out, e.base = dst, len(dst)
	res := b.sv.ValidateTokens(e)
	if e.dec != nil {
		e.dec.Release()
	}
	if e.err != nil {
		return dst, fmt.Errorf("bind: marshaled document does not parse: %w", e.err)
	}
	if !res.OK() {
		viol := res.Violations[0]
		return dst, fmt.Errorf("bind: marshaled document is schema-invalid at %s: %s", viol.Path, viol.Msg)
	}
	return e.out, nil
}

// Serialize renders a value tree as deterministic XML without checking it:
// Marshal's bytes for a valid tree, and the serialization half of the
// serialize+parse+validate reference that tests hold Marshal to.
func Serialize(v *Value) []byte {
	e := newEncoder(v, false)
	e.writeRest()
	return e.out
}

// encoder is the marshal walk: an explicit-stack traversal of a value tree
// that appends the document to out and, as a validator.TokenSource, yields
// the tokens of what it wrote.
type encoder struct {
	ns    *nsTable
	root  *Value
	out   []byte // the caller's bytes, then the document from offset base
	base  int
	stack []encFrame

	started    bool
	endPending bool // a self-closed element still owes its end token
	endName    xmlparser.Name

	// check is set while the tokens are consumed. Serialize and the rest
	// of a resumed walk only write, so they skip the checks and the token
	// payloads.
	check bool
	attrs []xmlparser.Attr // scratch: the start tag's token attributes
	text  []byte           // scratch: the text token's payload

	// dec reads the written bytes from the first piece the walk cannot
	// vouch for; tokens before offset skipTo were yielded by the walk. err
	// is the decoder's parse error.
	dec    *xmlparser.Decoder
	skipTo int
	err    error
}

// encFrame is one open element of the walk.
type encFrame struct {
	v    *Value
	name xmlparser.Name
	next int    // index of the next child or segment
	text string // KindSimple: the lexical form, "" once written
}

func newEncoder(v *Value, check bool) *encoder {
	ns := newNSTable()
	collectSpaces(v, ns)
	return &encoder{ns: ns, root: v, check: check}
}

// Next implements validator.TokenSource.
func (e *encoder) Next(t *xmlparser.Token) error {
	if e.dec == nil {
		tok, at, ok := e.step()
		if !ok {
			return io.EOF
		}
		if at < 0 {
			*t = tok
			return nil
		}
		e.resume(at)
	}
	for {
		if err := e.dec.Next(t); err != nil {
			if err != io.EOF {
				e.err = err
			}
			return err
		}
		if t.Pos.Offset >= e.skipTo {
			return nil
		}
	}
}

// resume finishes writing the document and hands the token stream to a
// decoder over the document, from offset at of the output on. at is
// always where a markup or text token starts, and the walk's tokens
// before it are exactly the decoder's, so the decoder's tokens before it
// are skipped.
func (e *encoder) resume(at int) {
	e.writeRest()
	e.dec = xmlparser.NewDecoder(e.out[e.base:], nil)
	e.skipTo = at - e.base
}

// writeRest runs the walk to the end, writing only.
func (e *encoder) writeRest() {
	e.check = false
	for {
		if _, _, ok := e.step(); !ok {
			return
		}
	}
}

// step writes the next piece of the document and returns its token. at is
// -1 when the token is what a parser reads from the piece, and otherwise
// the offset where the piece starts: the walk cannot vouch for it, and the
// token is not meaningful. ok is false at the end of the document.
func (e *encoder) step() (tok xmlparser.Token, at int, ok bool) {
	if e.endPending {
		e.endPending = false
		return xmlparser.Token{Kind: xmlparser.KindEndElement, Name: e.endName}, -1, true
	}
	if !e.started {
		e.started = true
		return e.open(e.root, true)
	}
	n := len(e.stack)
	if n == 0 {
		return xmlparser.Token{}, -1, false
	}
	f := &e.stack[n-1]
	switch v := f.v; v.Kind {
	case KindSimple:
		if s := f.text; s != "" {
			f.text = ""
			start := len(e.out)
			var clean bool
			e.out, clean = xmlparser.AppendEscaped(e.out, s, false)
			if e.check {
				e.text = append(e.text[:0], s...)
			}
			return e.textToken(start, clean)
		}
	case KindStruct:
		if f.next < len(v.Children) {
			f.next++
			return e.open(v.Children[f.next-1], false)
		}
	case KindMixed:
		if f.next < len(v.Segments) {
			if c := v.Segments[f.next].Child; c != nil {
				f.next++
				return e.open(c, false)
			}
			return e.mixedText(f)
		}
	}
	name := f.name
	e.stack = e.stack[:n-1]
	e.out = xmlparser.AppendEndTag(e.out, name)
	return xmlparser.Token{Kind: xmlparser.KindEndElement, Name: name}, -1, true
}

// open writes v's start tag (the whole element when it is empty, and the
// fragment itself for raw content) and pushes a frame for its content.
func (e *encoder) open(v *Value, root bool) (xmlparser.Token, int, bool) {
	start := len(e.out)
	if v.Kind == KindRaw {
		// Raw wildcard fragments round-trip verbatim; they carry their own
		// namespace declarations from the source document.
		e.out = append(e.out, v.Raw...)
		return xmlparser.Token{}, start, true
	}
	name := e.ns.name(v.Name)
	clean := !e.check || xmlparser.IsNCName(name.Local)
	e.out = xmlparser.AppendName(append(e.out, '<'), name)
	attrs := e.attrs[:0]
	if root {
		for _, space := range e.ns.order {
			pfx := e.ns.prefixes[space]
			e.out = xmlparser.AppendAttr(e.out, xmlparser.Name{Prefix: "xmlns", Local: pfx}, space)
			if e.check {
				attrs = append(attrs, xmlparser.Attr{
					Name:  xmlparser.Name{Space: xmlparser.XMLNSNamespace, Prefix: "xmlns", Local: pfx},
					Value: space, IsNamespaceDecl: true,
				})
			}
		}
		clean = clean && !e.ns.bad
	}
	if !v.TypeName.IsZero() {
		attrs, clean = e.attr(attrs, clean, e.ns.name(xsd.QName{Space: xsd.XSINamespace, Local: "type"}), e.ns.qualify(v.TypeName))
	}
	if v.Kind == KindNil {
		attrs, clean = e.attr(attrs, clean, e.ns.name(xsd.QName{Space: xsd.XSINamespace, Local: "nil"}), "true")
	}
	for _, a := range v.Attrs {
		n := e.ns.name(a.Name)
		if e.check && (!xmlparser.IsNCName(n.Local) || n.Prefix == "" && n.Local == "xmlns") {
			clean = false // not an attribute name, or a namespace declaration
		}
		attrs, clean = e.attr(attrs, clean, n, a.Value.String())
	}
	if clean && e.check && xmlparser.DuplicateAttr(attrs) >= 0 {
		clean = false
	}
	e.attrs = attrs

	var lex string
	empty := true
	switch v.Kind {
	case KindSimple:
		lex = v.Simple.String()
		empty = lex == ""
	case KindStruct:
		empty = len(v.Children) == 0
	case KindMixed:
		empty = len(v.Segments) == 0
	}
	if empty {
		e.out = append(e.out, "/>"...)
		e.endPending, e.endName = true, name
	} else {
		e.out = append(e.out, '>')
		e.stack = append(e.stack, encFrame{v: v, name: name, text: lex})
	}
	tok := xmlparser.Token{Kind: xmlparser.KindStartElement, Name: name, Attrs: attrs, SelfClosing: empty}
	if !clean {
		return tok, start, true
	}
	return tok, -1, true
}

// attr writes one attribute and, while checking, adds it to the token's
// attributes; clean turns false when a parser would not read value back.
func (e *encoder) attr(attrs []xmlparser.Attr, clean bool, n xmlparser.Name, value string) ([]xmlparser.Attr, bool) {
	e.out = append(e.out, ' ')
	e.out = xmlparser.AppendName(e.out, n)
	e.out = append(e.out, `="`...)
	var ok bool
	e.out, ok = xmlparser.AppendEscaped(e.out, value, true)
	e.out = append(e.out, '"')
	if !e.check {
		return attrs, clean
	}
	return append(attrs, xmlparser.Attr{Name: n, Value: value}), clean && ok
}

// mixedText writes the run of text segments at f.next as the one text
// token a parser reads from it.
func (e *encoder) mixedText(f *encFrame) (xmlparser.Token, int, bool) {
	segs := f.v.Segments
	start := len(e.out)
	e.text = e.text[:0]
	clean := true
	for ; f.next < len(segs) && segs[f.next].Child == nil; f.next++ {
		s := segs[f.next].Text
		var ok bool
		e.out, ok = xmlparser.AppendEscaped(e.out, s, false)
		clean = clean && ok
		if e.check {
			e.text = append(e.text, s...)
		}
	}
	// A raw fragment may open with character data, which a parser joins
	// to this text: resume before the text so both are read together.
	if f.next < len(segs) && segs[f.next].Child.Kind == KindRaw {
		clean = false
	}
	if clean && len(e.text) == 0 {
		return e.step() // no text written (or writing only): no token
	}
	return e.textToken(start, clean)
}

// textToken returns a text token viewing e.text, the payload just written
// at start.
func (e *encoder) textToken(start int, clean bool) (xmlparser.Token, int, bool) {
	if !clean {
		return xmlparser.Token{}, start, true
	}
	tok := xmlparser.Token{Kind: xmlparser.KindText}
	tok.SetBytes(e.text)
	return tok, -1, true
}

// nsTable assigns stable prefixes to namespaces used in a value tree.
type nsTable struct {
	prefixes map[string]string
	order    []string // declaration order, excludes ""
	next     int
	// bad marks a namespace the root cannot declare: the XML or XMLNS
	// namespace, or a name a parser would not read back.
	bad bool
}

func newNSTable() *nsTable {
	return &nsTable{prefixes: map[string]string{"": ""}}
}

func (t *nsTable) add(space string) {
	if _, ok := t.prefixes[space]; ok {
		return
	}
	var pfx string
	switch space {
	case xsd.XSINamespace:
		pfx = "xsi"
	case xsd.XSDNamespace:
		pfx = "xsd"
	default:
		t.next++
		pfx = fmt.Sprintf("ns%d", t.next)
	}
	t.prefixes[space] = pfx
	t.order = append(t.order, space)
	if _, clean := xmlparser.AppendEscaped(nil, space, true); !clean ||
		space == xmlparser.XMLNamespace || space == xmlparser.XMLNSNamespace {
		t.bad = true
	}
}

// name returns q as written: with its namespace's prefix.
func (t *nsTable) name(q xsd.QName) xmlparser.Name {
	n := xmlparser.Name{Space: q.Space, Local: q.Local}
	if q.Space != "" {
		n.Prefix = t.prefixes[q.Space]
	}
	return n
}

func (t *nsTable) qualify(q xsd.QName) string { return t.name(q).Qualified() }

func collectSpaces(v *Value, ns *nsTable) {
	if v == nil || v.Kind == KindRaw {
		return
	}
	ns.add(v.Name.Space)
	if !v.TypeName.IsZero() || v.Kind == KindNil {
		ns.add(xsd.XSINamespace)
	}
	if !v.TypeName.IsZero() && v.TypeName.Space != "" {
		ns.add(v.TypeName.Space)
	}
	for _, a := range v.Attrs {
		if a.Name.Space != "" {
			ns.add(a.Name.Space)
		}
	}
	for _, c := range v.Children {
		collectSpaces(c, ns)
	}
	for _, s := range v.Segments {
		collectSpaces(s.Child, ns)
	}
}
