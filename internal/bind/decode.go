package bind

// Decoding is one validation pass with an observer attached: decoder
// implements validator.StreamEvents and builds the value tree from the
// callbacks. The DOM walk (DecodeDocument, DecodeBytes, DecodeSubtree) and
// the streaming walk (DecodeReader, DecodeStreamBytes) fire the same
// events, so both front ends share this one decoder. Memory stays
// O(depth + output) beyond the walk itself: the only retained state is
// the open-element value stack with the children waiting for their parent
// to close, and simple values arrive already parsed by the validator, so
// text is parsed once per element.

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/dom"
	"repro/internal/validator"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// DecodeBytes parses, validates and decodes a document. An unparseable
// document yields the parse-error verdict (matching ValidateBytes); an
// invalid one yields its violations; in both cases the Value is nil.
func (b *Binder) DecodeBytes(src []byte) (*Value, *validator.Result) {
	d := b.decoder()
	defer d.done(false)
	return d.decodeBytes(src)
}

// DecodeBytesScoped is DecodeBytes with the tree lent to fn: the Value is
// valid only until fn returns, when its memory goes back to pools for
// later decodes. fn is called once, with what DecodeBytes would return.
func (b *Binder) DecodeBytesScoped(src []byte, fn func(*Value, *validator.Result)) {
	d := b.decoder()
	defer d.done(true)
	fn(d.decodeBytes(src))
}

func (d *decoder) decodeBytes(src []byte) (*Value, *validator.Result) {
	doc, err := dom.Parse(src)
	if err != nil {
		return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: err.Error()}}}
	}
	// The tree does not point into the DOM: raw wildcard content is
	// serialized to a string.
	defer doc.Release()
	return d.decodeDocument(doc)
}

// DecodeDocument validates the document and, when valid, decodes it into
// a typed Value in the same walk. The returned Result is always the full
// verdict.
func (b *Binder) DecodeDocument(doc *dom.Document) (*Value, *validator.Result) {
	d := b.decoder()
	defer d.done(false)
	return d.decodeDocument(doc)
}

func (d *decoder) decodeDocument(doc *dom.Document) (*Value, *validator.Result) {
	v, res, err := d.finish(d.b.v.ValidateDocumentEvents(doc, d))
	if err != nil {
		// Defensive: a document the validator accepted must decode; any
		// error here is a binder bug surfaced as a verdict.
		return nil, &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: err.Error()}}}
	}
	return v, res
}

// DecodeSubtree validates el against decl as a standalone subtree (its
// IDREFs must resolve inside it, as with ValidateElement) and decodes it in
// the same walk. The Value is nil when the Result has violations; the error
// reports internal failures only.
func (b *Binder) DecodeSubtree(el *dom.Element, decl *xsd.ElementDecl) (*Value, *validator.Result, error) {
	d := b.decoder()
	defer d.done(false)
	return d.finish(b.v.ValidateElementEvents(el, decl, d))
}

// DecodeReader validates a document from r through the streaming path and
// decodes it in the same pass. The Result is the full verdict; the Value
// is nil when the document is invalid. The error reports I/O-independent
// internal failures only (the verdict owns everything schema-related).
func (b *Binder) DecodeReader(ctx context.Context, r io.Reader) (*Value, *validator.Result, error) {
	d := b.decoder()
	defer d.done(false)
	return d.decodeReader(ctx, r)
}

// DecodeReaderScoped is DecodeReader with the tree lent to fn, as in
// DecodeBytesScoped. fn is not called when DecodeReader would return an
// error; that error is returned instead.
func (b *Binder) DecodeReaderScoped(ctx context.Context, r io.Reader, fn func(*Value, *validator.Result)) error {
	d := b.decoder()
	defer d.done(true)
	v, res, err := d.decodeReader(ctx, r)
	if err != nil {
		return err
	}
	fn(v, res)
	return nil
}

func (d *decoder) decodeReader(ctx context.Context, r io.Reader) (*Value, *validator.Result, error) {
	res, err := d.b.sv.ValidateReaderEvents(ctx, r, d)
	if err != nil {
		return nil, nil, err
	}
	return d.finish(res)
}

// DecodeStreamBytes is DecodeReader over an in-memory document.
func (b *Binder) DecodeStreamBytes(src []byte) (*Value, *validator.Result, error) {
	d := b.decoder()
	defer d.done(false)
	return d.finish(b.sv.ValidateBytesEvents(src, d))
}

// decoder implements validator.StreamEvents. Its Values, Attr lists and
// child lists come from the document's slab. The completed children of
// the open structs wait on one pending stack, so each struct's list is
// copied once, at its final length, when the struct closes.
type decoder struct {
	b       *Binder
	stack   []openValue
	pending []*Value
	root    *Value
	err     error
	slab    slab
}

// openValue is an element being decoded: its children are pending[mark:].
type openValue struct {
	v    *Value
	mark int
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decoder returns a pooled decoder for one document.
func (b *Binder) decoder() *decoder {
	d := decoders.Get().(*decoder)
	d.b = b
	return d
}

// done releases the decoder's slab when the tree was only lent, or leaves
// it to the caller, and returns the decoder to the pool, unless a huge
// document grew its stacks.
func (d *decoder) done(scoped bool) {
	if scoped {
		d.slab.release()
	} else {
		d.slab.forget()
	}
	if cap(d.stack)+cap(d.pending) > maxPooledEntries {
		return
	}
	clear(d.stack[:cap(d.stack)])
	clear(d.pending[:cap(d.pending)])
	*d = decoder{stack: d.stack[:0], pending: d.pending[:0], slab: d.slab}
	decoders.Put(d)
}

func (d *decoder) finish(res *validator.Result) (*Value, *validator.Result, error) {
	if !res.OK() {
		return nil, res, nil
	}
	if d.err != nil {
		return nil, res, d.err
	}
	if d.root == nil {
		return nil, res, fmt.Errorf("bind: decode produced no root value")
	}
	return d.root, res, nil
}

// OpenElement implements validator.StreamEvents.
func (d *decoder) OpenElement(e validator.ElementStart) {
	v := d.slab.value()
	v.Name, v.typ, v.Wild = e.Name, e.Type, e.Wildcard
	if e.XSIType {
		v.TypeName = e.Type.TypeName()
	}
	if ct, ok := e.Type.(*xsd.ComplexType); ok {
		v.Attrs = typedAttrs(&d.slab, ct, e.Attrs)
	}
	switch t := e.Type.(type) {
	case *xsd.SimpleType:
		v.Kind = KindSimple
	case *xsd.ComplexType:
		switch t.Kind {
		case xsd.ContentSimple:
			v.Kind = KindSimple
		case xsd.ContentEmpty:
			v.Kind = KindEmpty
		case xsd.ContentMixed:
			v.Kind = KindMixed
		default:
			v.Kind = KindStruct
		}
	}
	if e.Nilled {
		v.Kind = KindNil
	}
	d.stack = append(d.stack, openValue{v, len(d.pending)})
}

// CloseElement implements validator.StreamEvents.
func (d *decoder) CloseElement(val *xsdtypes.Value) {
	n := len(d.stack)
	if n == 0 {
		if d.err == nil {
			d.err = fmt.Errorf("bind: unbalanced CloseElement")
		}
		return
	}
	top := d.stack[n-1]
	d.stack = d.stack[:n-1]
	v := top.v
	if v.Kind == KindSimple && val != nil {
		v.Simple = *val
	}
	if kids := d.pending[top.mark:]; len(kids) > 0 {
		v.Children = d.slab.children(kids)
		d.pending = d.pending[:top.mark]
	}
	d.attach(v)
}

// MixedText implements validator.StreamEvents.
func (d *decoder) MixedText(data string) {
	if n := len(d.stack); n > 0 && d.stack[n-1].v.Kind == KindMixed {
		d.stack[n-1].v.Segments = appendText(d.stack[n-1].v.Segments, data)
	}
}

// RawElement implements validator.StreamEvents: a skipped wildcard subtree
// is kept as its serialized XML.
func (d *decoder) RawElement(name xsd.QName, xml string) {
	v := d.slab.value()
	v.Name, v.Kind, v.Wild, v.Raw = name, KindRaw, true, xml
	d.attach(v)
}

// attach delivers a completed child to the innermost open element, or
// records the root.
func (d *decoder) attach(v *Value) {
	if n := len(d.stack); n > 0 {
		switch p := d.stack[n-1].v; p.Kind {
		case KindMixed:
			p.Segments = append(p.Segments, Segment{Child: v})
		case KindStruct:
			d.pending = append(d.pending, v)
		}
		// Other parent kinds only occur on invalid documents; the value
		// is discarded with the verdict.
		return
	}
	if d.root == nil {
		d.root = v
	}
}
