package validator

// Streaming validation: the paper's §5–6 pipeline compiles content models
// to Glushkov automata precisely so validity can be decided incrementally.
// StreamValidator drives those cached automata directly off the token
// stream with an explicit element/automaton-state stack — O(depth) memory,
// no DOM allocation — while reproducing ValidateDocument's verdicts and
// messages exactly.
//
// The DOM validator is not causal: when an element's content model fails,
// it reports the one match error and validates none of the children, and
// ID tracking never sees the abandoned subtree. A streaming pass has
// already validated the prefix children by the time the automaton rejects,
// so verdict parity needs two mechanisms:
//
//   - per-frame violation buffering: each open element accumulates its
//     attribute, text and child violations separately and assembles them
//     in DOM emission order at its end tag; a content-model failure drops
//     the buffered child violations wholesale.
//   - an ID journal: every insertion into the document-wide ID map is
//     journaled, and each frame records a high-water mark after its own
//     attributes; on content-model failure the IDs (and pending IDREFs)
//     recorded past the mark are rolled back. Between a frame's mark and
//     its failure only to-be-dropped descendants run, so rollback restores
//     exactly the state the DOM validator would have.
//
// Elements the streaming path cannot decide incrementally — identity
// constraints (which need the whole subtree) and content models compiled
// to the backtracking interpreter (contentmodel.ErrTooComplex) — degrade
// gracefully: their subtree is buffered into a private DOM fragment and
// validated by the ordinary recursive path, sharing the global ID state.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// StreamValidator validates documents incrementally from a token stream.
// Obtain one with Validator.Stream. It holds no per-run state, so a single
// StreamValidator (like its parent Validator) is safe for concurrent use:
// each ValidateReader/ValidateBytes call allocates a private run and
// shares only the Validator's immutable schema and thread-safe model
// cache.
type StreamValidator struct {
	v *Validator
}

// Stream returns a streaming front-end over the validator. The returned
// StreamValidator shares v's compiled-model cache, so automata built by
// either path are reused by both.
func (v *Validator) Stream() *StreamValidator { return &StreamValidator{v: v} }

// ValidateReader validates a document read incrementally from r. Memory
// use is proportional to tree depth (plus any subtrees buffered for
// identity constraints), not document size. The verdict, violation order
// and messages match ValidateBytes on the same input.
func (sv *StreamValidator) ValidateReader(r io.Reader) *Result {
	res, _ := sv.ValidateReaderContext(context.Background(), r)
	return res
}

// ValidateReaderContext is ValidateReader with cancellation, mirroring
// ValidateBatchContext's semantics: when ctx is cancelled the run stops
// at the next token boundary, the partial verdict is discarded (a prefix
// proves nothing about the document) and the returned error is ctx.Err().
// A nil error means the stream was fully consumed and the Result is the
// same one ValidateReader would have produced.
//
// Cancellation is checked between tokens, so a Read blocked indefinitely
// on a dead reader is not interrupted by ctx alone; servers should pair
// the deadline with a transport-level one (net/http request bodies
// already fail their Reads when the connection closes).
func (sv *StreamValidator) ValidateReaderContext(ctx context.Context, r io.Reader) (*Result, error) {
	return sv.validate(ctx, xmlparser.NewReaderDecoder(r, nil), nil)
}

// ValidateBytes validates an in-memory document through the streaming
// path (no DOM is built). It is the drop-in counterpart of the package
// function ValidateBytes.
func (sv *StreamValidator) ValidateBytes(src []byte) *Result {
	res, _ := sv.validate(context.Background(), xmlparser.NewDecoder(src, nil), nil)
	return res
}

// TokenSource yields one document's tokens in order, as an
// xmlparser.Decoder does: Next fills the caller's token, overwriting every
// field, and returns io.EOF after the last token. A filled token's payload
// and attributes need only stay valid until the next call. The decoder is
// one source; bind's Marshal, which writes a value tree and yields the
// tokens of what it wrote, is another.
type TokenSource interface {
	Next(*xmlparser.Token) error
}

// ValidateTokens validates the document src yields. Any error other than
// io.EOF ends the run with that error as the verdict's one violation, as a
// parse error does in ValidateBytes.
func (sv *StreamValidator) ValidateTokens(src TokenSource) *Result {
	res, _ := sv.validate(context.Background(), src, nil)
	return res
}

// ctxCheckEvery is how many tokens the streaming loop processes between
// cancellation checks: rare enough that the select never shows up in
// profiles, frequent enough that a deadline trips within microseconds.
const ctxCheckEvery = 256

func (sv *StreamValidator) validate(ctx context.Context, src TokenSource, ev StreamEvents) (*Result, error) {
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
	}
	sr := &streamRun{v: sv.v, ids: map[string]loc{}, events: ev}
	var tok xmlparser.Token
	sinceCheck := 0
	for {
		if done != nil {
			if sinceCheck++; sinceCheck >= ctxCheckEvery {
				sinceCheck = 0
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
		}
		err := src.Next(&tok)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Parity with ValidateBytes: a malformed document yields
			// only the parse error, regardless of violations already
			// observed in the prefix.
			return &Result{Violations: []Violation{{Path: "/", Msg: err.Error()}}}, nil
		}
		sr.token(&tok)
	}
	sr.finish()
	return &Result{Violations: render(sr.viols)}, nil
}

// frame modes.
const (
	fmModel    = iota // complex element-only/mixed content, Glushkov Run
	fmSimple          // simple-typed element
	fmCSimple         // complex type with simple content
	fmCEmpty          // complex type with empty content
	fmNilled          // xsi:nil="true" on a nillable element
	fmDead            // xsi:type/abstract/nil gate failed; subtree skipped
	fmFallback        // subtree buffered for the DOM path
)

// frame is one open element on the streaming stack.
type frame struct {
	// parent is the enclosing frame; prefix:local, with n its 1-based
	// position among same-named siblings, is this element's path step,
	// frozen into step on first need (freeze).
	parent        *frame
	prefix, local string
	n             int
	step          *pathStep

	decl *xsd.ElementDecl
	mode int

	st    *xsd.SimpleType   // fmSimple / fmCSimple value type
	run   *contentmodel.Run // fmModel automaton state
	mixed bool

	// Buffered violations, assembled in DOM order at the end tag.
	attrViols   []violation
	textViols   []violation
	childViols  []violation
	contentViol *violation
	failed      bool

	sawElemChild bool
	textBuf      []byte   // accumulated character data (fmSimple/fmCSimple)
	plainAttrs   []string // simple types: non-meta attribute names for checkNoAttributes

	counts  []childCount // child name -> occurrences, for positional steps
	idMark  int          // ID journal mark after own attributes
	refMark int          // pending-IDREF mark
	nsMark  int          // namespace-binding stack mark

	// Event-observer bookkeeping: announced marks frames whose OpenElement
	// was delivered (and so owe a CloseElement); wild marks wildcard-
	// admitted elements; evVal carries the parsed simple value from
	// closeFrame to the CloseElement callback.
	announced bool
	wild      bool
	evVal     *xsdtypes.Value

	// fmFallback subtree buffer. raw marks a skipped wildcard subtree
	// buffered for the observer's RawElement rather than for validation.
	raw     bool
	fbDoc   *dom.Document
	fbRoot  *dom.Element
	fbCur   dom.Node
	fbDepth int

	// pooled marks a frame sitting on the free list; reset clears it.
	pooled bool
}

// childCount tracks occurrences of one child name under a frame; the
// small linear list replaces a per-frame map (few distinct names per
// element).
type childCount struct {
	prefix, local string
	n             int
}

// childIndex counts one more child named prefix:local and returns its
// 1-based position among same-named siblings.
func (f *frame) childIndex(name xmlparser.Name) int {
	for i := range f.counts {
		if c := &f.counts[i]; c.local == name.Local && c.prefix == name.Prefix {
			c.n++
			return c.n
		}
	}
	f.counts = append(f.counts, childCount{prefix: name.Prefix, local: name.Local, n: 1})
	return 1
}

// freeze returns the frame's path as an immutable step chain, freezing it
// and any unfrozen ancestors (top-down, each at most once).
func freeze(f *frame) *pathStep {
	if f.step != nil {
		return f.step
	}
	var up []*frame
	for g := f; g != nil && g.step == nil; g = g.parent {
		up = append(up, g)
	}
	for i := len(up) - 1; i >= 0; i-- {
		g := up[i]
		tag := xmlparser.Name{Prefix: g.prefix, Local: g.local}.Qualified()
		if g.parent == nil {
			g.step = &pathStep{tag: "/" + tag}
		} else {
			g.step = &pathStep{parent: g.parent.step, tag: tag, n: g.n}
		}
	}
	return f.step
}

// at locates the frame's element, or with attr one of its attributes.
func (f *frame) at(attr string) loc { return loc{base: freeze(f), attr: attr} }

// violation records msg against the frame's element.
func (f *frame) violation(msg string) violation { return violation{at: f.at(""), msg: msg} }

// childAt locates a child of the frame that gets no frame of its own:
// prefix:local at same-name position n (0 for no positional predicate).
func (f *frame) childAt(name xmlparser.Name, n int) loc {
	return loc{base: &pathStep{parent: freeze(f), tag: name.Qualified(), n: n}}
}

// reset re-initializes a recycled frame, keeping the capacity of its
// buffers (and the automaton run's internal state) for reuse.
func (f *frame) reset(parent *frame, name xmlparser.Name, n int, decl *xsd.ElementDecl, nsMark int) {
	run := f.run
	attrViols, textViols, childViols := f.attrViols[:0], f.textViols[:0], f.childViols[:0]
	plainAttrs, counts, textBuf := f.plainAttrs[:0], f.counts[:0], f.textBuf[:0]
	*f = frame{parent: parent, prefix: name.Prefix, local: name.Local, n: n, decl: decl, nsMark: nsMark,
		run: run, attrViols: attrViols, textViols: textViols,
		childViols: childViols, plainAttrs: plainAttrs, counts: counts, textBuf: textBuf}
}

// streamRun is one streaming validation pass.
type streamRun struct {
	v     *Validator
	viols []violation // the result, capped at maxViolations and rendered at the end

	frames    []*frame
	free      []*frame // recycled frames; popped elements return here
	skipDepth int      // >0: inside an unvalidated subtree
	rootDone  bool

	// events, when non-nil, receives the structural callbacks; evAttrs is
	// the scratch slice OpenElement's attributes are built in.
	events  StreamEvents
	evAttrs []Attr

	ns       xmlparser.Bindings // in-scope namespace declarations
	attrSeen []xsd.QName        // scratch for attributes()

	// Document-wide ID state, shared with fallback sub-runs. idJournal
	// records insertions so failed subtrees can be rolled back.
	ids       map[string]loc
	idJournal []string
	idrefs    []pendingRef
}

func (sr *streamRun) top() *frame {
	if len(sr.frames) == 0 {
		return nil
	}
	return sr.frames[len(sr.frames)-1]
}

// newFrame returns a recycled or fresh frame for the element name at
// same-name position n under parent.
func (sr *streamRun) newFrame(parent *frame, name xmlparser.Name, n int, decl *xsd.ElementDecl, nsMark int) *frame {
	if k := len(sr.free); k > 0 {
		f := sr.free[k-1]
		sr.free = sr.free[:k-1]
		f.reset(parent, name, n, decl, nsMark)
		return f
	}
	return &frame{parent: parent, prefix: name.Prefix, local: name.Local, n: n, decl: decl, nsMark: nsMark}
}

// recycle returns a popped frame to the free list. Its buffered violations
// must already have been delivered (deliver copies them out). Recycling a
// frame twice would hand its contentmodel.Run to two live frames at once —
// exactly the interleaving the Run's single-owner contract forbids — so a
// double recycle panics here instead of corrupting a later match.
func (sr *streamRun) recycle(f *frame) {
	if f.pooled {
		panic("validator: stream frame recycled twice")
	}
	f.pooled = true
	sr.free = append(sr.free, f)
}

func (sr *streamRun) emit(v violation) {
	if len(sr.viols) < maxViolations {
		sr.viols = append(sr.viols, v)
	}
}

// skip marks the current start tag's subtree as unvalidated. The matching
// (possibly synthesized) end tag rebalances the counter.
func (sr *streamRun) skip() { sr.skipDepth = 1 }

// token dispatches one parse event.
func (sr *streamRun) token(tok *xmlparser.Token) {
	if sr.skipDepth > 0 {
		switch tok.Kind {
		case xmlparser.KindStartElement:
			sr.skipDepth++
		case xmlparser.KindEndElement:
			sr.skipDepth--
		}
		return
	}
	if f := sr.top(); f != nil && f.mode == fmFallback {
		sr.feedFallback(f, tok)
		return
	}
	switch tok.Kind {
	case xmlparser.KindStartElement:
		sr.startElement(tok)
	case xmlparser.KindEndElement:
		sr.endElement()
	case xmlparser.KindText:
		sr.textNode(tok, false)
	case xmlparser.KindCData:
		sr.textNode(tok, true)
	case xmlparser.KindComment, xmlparser.KindProcInst:
		// Comments and PIs are DOM child nodes: they violate only the
		// "nilled element must be empty" rule.
		if f := sr.top(); f != nil && f.mode == fmNilled && !f.failed {
			f.fail(f.violation("nilled element must be empty"))
		}
	}
}

func (sr *streamRun) startElement(tok *xmlparser.Token) {
	nsMark := sr.ns.Mark()
	for i := range tok.Attrs {
		if a := &tok.Attrs[i]; a.IsNamespaceDecl {
			sr.ns.Push(declaredPrefix(a.Name), a.Value)
		}
	}
	if len(sr.frames) == 0 {
		if sr.rootDone {
			sr.skipChild(nsMark)
			return
		}
		name := xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local}
		decl, ok := sr.v.schema.LookupElement(name)
		if !ok {
			sr.emit(violation{at: pathLoc("/" + tok.Name.Qualified()), msg: fmt.Sprintf("no global declaration for root element %s", name)})
			sr.rootDone = true
			sr.skipChild(nsMark)
			return
		}
		sr.openFrame(tok, sr.newFrame(nil, tok.Name, 1, decl, nsMark))
		return
	}
	parent := sr.top()
	switch parent.mode {
	case fmModel:
		if parent.failed {
			sr.skipChild(nsMark)
			return
		}
		leaf, merr := parent.run.Step(contentmodel.Symbol{Space: tok.Name.Space, Local: tok.Name.Local})
		if merr != nil {
			// The DOM validator reports the match error against the
			// failing child and validates no children at all: drop the
			// buffered child violations and roll back their IDs.
			parent.fail(violation{at: parent.childAt(tok.Name, 0), msg: merr.Error()})
			parent.childViols = nil
			sr.rollbackTo(parent)
			sr.skipChild(nsMark)
			return
		}
		n := parent.childIndex(tok.Name)
		switch data := leaf.Data.(type) {
		case *xsd.ElementDecl:
			resolved, err := sr.v.schema.ResolveChild(data, xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local})
			if err != nil {
				parent.childViols = append(parent.childViols, violation{at: parent.childAt(tok.Name, n), msg: err.Error()})
				sr.skipChild(nsMark)
				return
			}
			sr.openFrame(tok, sr.newFrame(parent, tok.Name, n, resolved, nsMark))
		case *contentmodel.Wildcard:
			// Lax wildcard processing: validate when a global
			// declaration exists, accept otherwise.
			if gdecl, ok := sr.v.schema.LookupElement(xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local}); ok {
				f := sr.newFrame(parent, tok.Name, n, gdecl, nsMark)
				f.wild = true
				sr.openFrame(tok, f)
			} else if sr.events != nil {
				// Buffer the unvalidated subtree for RawElement.
				f := sr.newFrame(parent, tok.Name, n, nil, nsMark)
				f.raw = true
				sr.startFallback(f, tok)
			} else {
				sr.skipChild(nsMark)
			}
		default:
			sr.skipChild(nsMark)
		}
	case fmSimple, fmCSimple:
		parent.sawElemChild = true
		sr.skipChild(nsMark)
	case fmCEmpty:
		if !parent.failed {
			parent.fail(parent.violation(fmt.Sprintf("element <%s> is not allowed in empty content", tok.Name.Qualified())))
		}
		sr.skipChild(nsMark)
	case fmNilled:
		if !parent.failed {
			parent.fail(parent.violation("nilled element must be empty"))
		}
		sr.skipChild(nsMark)
	default: // fmDead
		sr.skipChild(nsMark)
	}
}

// skipChild discards the bindings pushed for the current start tag and
// skips its subtree.
func (sr *streamRun) skipChild(nsMark int) {
	sr.ns.Pop(nsMark)
	sr.skip()
}

// fail records the frame's content violation; its buffered child
// violations are not delivered.
func (f *frame) fail(v violation) {
	f.failed = true
	f.contentViol = &v
}

// announce delivers OpenElement for a frame that passed the prologue.
func (sr *streamRun) announce(f *frame, typ xsd.Type, tok *xmlparser.Token, nilled bool) {
	if sr.events == nil {
		return
	}
	f.announced = true
	attrs := sr.evAttrs[:0]
	for i := range tok.Attrs {
		if a := &tok.Attrs[i]; !isMetaAttrName(a.Name) {
			attrs = append(attrs, Attr{Name: xsd.QName{Space: a.Name.Space, Local: a.Name.Local}, Value: a.Value})
		}
	}
	sr.evAttrs = attrs
	xsiType, _ := tok.Attr(xsd.XSINamespace, "type")
	sr.events.OpenElement(ElementStart{Decl: f.decl, Type: typ, Name: xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local},
		Attrs: attrs, XSIType: xsiType != "", Nilled: nilled, Wildcard: f.wild})
}

// openFrame replicates run.element's prologue (xsi:type, abstract,
// xsi:nil) and pushes the frame for the element's content. f.wild marks a
// wildcard-admitted element for the observer.
func (sr *streamRun) openFrame(tok *xmlparser.Token, f *frame) {
	decl := f.decl
	typ := decl.Type
	if lex, _ := tok.Attr(xsd.XSINamespace, "type"); lex != "" {
		q, err := resolveQName(lex, sr.ns.Lookup)
		if err != nil {
			sr.pushDead(f, fmt.Sprintf("bad xsi:type %q: %v", lex, err))
			return
		}
		override, ok := sr.v.schema.LookupType(q)
		if !ok {
			sr.pushDead(f, fmt.Sprintf("xsi:type %s names an unknown type", q))
			return
		}
		if !derivesFromType(override, typ) {
			sr.pushDead(f, fmt.Sprintf("xsi:type %s does not derive from the declared type", q))
			return
		}
		typ = override
	}
	if ct, ok := typ.(*xsd.ComplexType); ok && ct.Abstract {
		sr.pushDead(f, fmt.Sprintf("type %s is abstract; an xsi:type of a concrete derived type is required", ct.Name))
		return
	}
	if lex, _ := tok.Attr(xsd.XSINamespace, "nil"); lex != "" {
		if !decl.Nillable {
			sr.pushDead(f, "xsi:nil on a non-nillable element")
			return
		}
		if lex == "true" || lex == "1" {
			// Attributes are validated as usual; closeFrame adds the nil
			// rules in run.element's order.
			f.mode = fmNilled
			switch t := typ.(type) {
			case *xsd.SimpleType:
				f.collectPlainAttrs(tok)
			case *xsd.ComplexType:
				sr.attributes(f, tok, t)
			}
			sr.frames = append(sr.frames, f)
			sr.announce(f, typ, tok, true)
			return
		}
	}
	// Degrade to the DOM path where streaming cannot decide: identity
	// constraints need the whole subtree, and Interp-compiled content
	// models are not incremental.
	fallback := len(decl.Constraints) > 0
	var g *contentmodel.Glushkov
	if ct, ok := typ.(*xsd.ComplexType); !fallback && ok &&
		(ct.Kind == xsd.ContentElementOnly || ct.Kind == xsd.ContentMixed) {
		g, _ = sr.v.models.matcher(ct).(*contentmodel.Glushkov)
		if g == nil {
			fallback = true
		}
	}
	if fallback {
		sr.startFallback(f, tok)
		return
	}
	switch t := typ.(type) {
	case *xsd.SimpleType:
		f.mode = fmSimple
		f.st = t
		f.collectPlainAttrs(tok)
	case *xsd.ComplexType:
		sr.attributes(f, tok, t)
		switch t.Kind {
		case xsd.ContentSimple:
			f.mode = fmCSimple
			f.st = t.SimpleContentType
		case xsd.ContentEmpty:
			f.mode = fmCEmpty
		default:
			f.mode = fmModel
			f.mixed = t.Kind == xsd.ContentMixed
			if f.run != nil {
				f.run.Reset(g)
			} else {
				f.run = g.Start()
			}
		}
	}
	f.idMark = len(sr.idJournal)
	f.refMark = len(sr.idrefs)
	sr.frames = append(sr.frames, f)
	sr.announce(f, typ, tok, false)
}

func (sr *streamRun) pushDead(f *frame, msg string) {
	f.mode = fmDead
	v := f.violation(msg)
	f.contentViol = &v
	sr.frames = append(sr.frames, f)
}

// collectPlainAttrs records the start tag's non-meta attribute names for
// the simple-type "not allowed" check at the end tag.
func (f *frame) collectPlainAttrs(tok *xmlparser.Token) {
	for i := range tok.Attrs {
		if a := &tok.Attrs[i]; !isMetaAttrName(a.Name) {
			f.plainAttrs = append(f.plainAttrs, a.Name.Qualified())
		}
	}
}

func isMetaAttrName(n xmlparser.Name) bool {
	return n.Space == xmlparser.XMLNSNamespace || n.Space == xsd.XSINamespace || n.Space == xmlparser.XMLNamespace
}

// attributes replicates run.attributes over the start tag's attribute
// list, buffering violations into the frame.
func (sr *streamRun) attributes(f *frame, tok *xmlparser.Token, ct *xsd.ComplexType) {
	seen := sr.attrSeen[:0]
	for i := range tok.Attrs {
		a := &tok.Attrs[i]
		if isMetaAttrName(a.Name) {
			continue
		}
		name := xsd.QName{Space: a.Name.Space, Local: a.Name.Local}
		seen = append(seen, name)
		use := ct.FindAttributeUse(name)
		if use == nil || use.Prohibited {
			if ct.AttrWildcard != nil && ct.AttrWildcard.Admits(name.Space) {
				continue
			}
			f.attrViols = append(f.attrViols, f.violation(fmt.Sprintf("attribute %q is not declared for this element", a.Name.Qualified())))
			continue
		}
		val, err := use.Decl.Type.Parse(a.Value)
		if err != nil {
			f.attrViols = append(f.attrViols, f.violation(fmt.Sprintf("attribute %q: %v", a.Name.Qualified(), err)))
			continue
		}
		if want, ok := use.FixedValue(); ok && !val.Equal(want) {
			f.attrViols = append(f.attrViols, f.violation(fmt.Sprintf("attribute %q must have the fixed value %q", a.Name.Qualified(), *use.Fixed)))
		}
		if kind := sr.v.idKind(use.Decl.Type); kind != "" {
			sr.trackIDs(kind, a.Value, f.at(a.Name.Qualified()), &f.attrViols)
		}
	}
	for _, use := range ct.AttributeUses {
		if use.Required && !use.Prohibited {
			missing := true
			for _, s := range seen {
				if s == use.Decl.Name {
					missing = false
					break
				}
			}
			if missing {
				f.attrViols = append(f.attrViols, f.violation(fmt.Sprintf("required attribute %q is missing", use.Decl.Name.Local)))
			}
		}
	}
	sr.attrSeen = seen[:0]
}

// trackIDs mirrors run.trackIDs against the shared ID state, journaling
// insertions for rollback. Callers check idKind first, so an element that
// tracks nothing never freezes its frame.
func (sr *streamRun) trackIDs(kind, lexical string, at loc, viols *[]violation) {
	norm := strings.Join(strings.Fields(lexical), " ")
	switch kind {
	case "ID":
		if prev, dup := sr.ids[norm]; dup {
			*viols = append(*viols, dupID(at, norm, prev))
		} else {
			sr.ids[norm] = at
			sr.idJournal = append(sr.idJournal, norm)
		}
	case "IDREF":
		sr.idrefs = append(sr.idrefs, pendingRef{id: norm, at: at})
	case "IDREFS":
		for _, ref := range strings.Fields(norm) {
			sr.idrefs = append(sr.idrefs, pendingRef{id: ref, at: at})
		}
	}
}

// rollbackTo undoes ID insertions and pending IDREFs recorded after the
// frame's marks — the descendants the DOM validator would never have
// visited.
func (sr *streamRun) rollbackTo(f *frame) {
	for _, id := range sr.idJournal[f.idMark:] {
		delete(sr.ids, id)
	}
	sr.idJournal = sr.idJournal[:f.idMark]
	sr.idrefs = sr.idrefs[:f.refMark]
}

// textNode consumes a character-data or CDATA token. It works on the
// token's zero-copy byte view: whitespace checks and simple-content
// accumulation never materialize a string, so pure scanning stays
// allocation-free. Strings are built only when a violation needs a
// snippet or a binding consumer wants the mixed text.
func (sr *streamRun) textNode(tok *xmlparser.Token, cdata bool) {
	f := sr.top()
	if f == nil {
		return // document-level whitespace or misc
	}
	data := tok.Bytes()
	if !cdata && len(data) == 0 {
		return // dom.Parse drops empty text nodes
	}
	switch f.mode {
	case fmModel:
		if f.mixed {
			if sr.events != nil {
				sr.events.MixedText(tok.Data())
			}
			return
		}
		if cdata {
			f.textViols = append(f.textViols, f.violation("character data is not allowed in element-only content"))
		} else if len(bytes.TrimSpace(data)) != 0 {
			f.textViols = append(f.textViols, f.violation(fmt.Sprintf("character data %q is not allowed in element-only content", snippet(tok.Data()))))
		}
	case fmSimple, fmCSimple:
		f.textBuf = append(f.textBuf, data...)
	case fmCEmpty:
		if !f.failed && (cdata || len(bytes.TrimSpace(data)) != 0) {
			f.fail(f.violation("character data is not allowed in empty content"))
		}
	case fmNilled:
		if !f.failed {
			f.fail(f.violation("nilled element must be empty"))
		}
	}
}

func (sr *streamRun) endElement() {
	n := len(sr.frames)
	if n == 0 {
		return
	}
	f := sr.frames[n-1]
	sr.frames = sr.frames[:n-1]
	sr.ns.Pop(f.nsMark)
	sr.deliver(sr.closeFrame(f))
	if f.announced {
		sr.events.CloseElement(f.evVal)
	}
	sr.recycle(f)
}

// deliver routes a closed frame's violations to its parent's buffer, or
// to the result when the root closes.
func (sr *streamRun) deliver(viols []violation) {
	if p := sr.top(); p != nil {
		p.childViols = append(p.childViols, viols...)
		return
	}
	sr.rootDone = true
	for _, v := range viols {
		sr.emit(v)
	}
}

// closeFrame assembles the frame's violations in the order the DOM
// validator emits them.
func (sr *streamRun) closeFrame(f *frame) []violation {
	switch f.mode {
	case fmModel:
		if !f.failed {
			if merr := f.run.End(); merr != nil {
				// Premature end: the DOM path reports it against the
				// parent and validates no children.
				f.fail(f.violation(merr.Error()))
				f.childViols = nil
				sr.rollbackTo(f)
			}
		}
		if !f.failed && len(f.attrViols) == 0 && len(f.textViols) == 0 {
			// Hot path: nothing buffered; deliver copies before recycle.
			return f.childViols
		}
		viols := make([]violation, 0, len(f.attrViols)+len(f.textViols)+1)
		viols = append(viols, f.attrViols...)
		viols = append(viols, f.textViols...)
		if f.failed {
			viols = append(viols, *f.contentViol)
		} else {
			viols = append(viols, f.childViols...)
		}
		return viols
	case fmSimple:
		var viols []violation
		if f.sawElemChild {
			viols = append(viols, f.violation("element content is not allowed in a simple-type element"))
		} else {
			text := string(f.textBuf)
			if f.decl.Fixed != nil && text == "" {
				text = *f.decl.Fixed
			}
			if f.decl.Default != nil && text == "" {
				text = *f.decl.Default
			}
			val, err := f.st.Parse(text)
			if err != nil {
				viols = append(viols, f.violation(err.Error()))
			} else {
				f.observe(&val)
				if want, ok := f.decl.FixedValue(f.st); ok && !val.Equal(want) {
					viols = append(viols, f.violation(fmt.Sprintf("value %q does not equal the fixed value %q", text, *f.decl.Fixed)))
				}
				if kind := sr.v.idKind(f.st); kind != "" {
					sr.trackIDs(kind, text, f.at(""), &viols)
				}
			}
		}
		return f.appendPlainAttrViols(viols)
	case fmCSimple:
		viols := f.attrViols
		if f.sawElemChild {
			viols = append(viols, f.violation("element content is not allowed in simple content"))
		} else {
			text := string(f.textBuf)
			val, err := f.st.Parse(text)
			if err != nil {
				viols = append(viols, f.violation(err.Error()))
			} else {
				f.observe(&val)
			}
			if kind := sr.v.idKind(f.st); kind != "" {
				sr.trackIDs(kind, text, f.at(""), &viols)
			}
		}
		return viols
	case fmNilled:
		viols := f.attrViols
		if f.decl.Fixed != nil {
			viols = append(viols, f.violation(msgNilFixed))
		}
		if f.contentViol != nil {
			viols = append(viols, *f.contentViol)
		}
		return f.appendPlainAttrViols(viols)
	default: // fmCEmpty, fmDead
		viols := f.attrViols
		if f.contentViol != nil {
			viols = append(viols, *f.contentViol)
		}
		return viols
	}
}

// observe keeps a copy of the element's parsed simple value for its
// CloseElement callback. Only the copy escapes, so a run without an
// observer allocates nothing here.
func (f *frame) observe(val *xsdtypes.Value) {
	if f.announced {
		v := *val
		f.evVal = &v
	}
}

// appendPlainAttrViols adds a simple-typed element's attribute violations
// (run.checkNoAttributes).
func (f *frame) appendPlainAttrViols(viols []violation) []violation {
	for _, name := range f.plainAttrs {
		viols = append(viols, f.violation(fmt.Sprintf("attribute %q is not allowed on a simple-type element", name)))
	}
	return viols
}

// startFallback begins buffering the element's subtree into a private DOM
// fragment: for the recursive validator, or for RawElement when f.raw.
func (sr *streamRun) startFallback(f *frame, tok *xmlparser.Token) {
	f.mode = fmFallback
	doc := dom.NewPooledDocument()
	root := doc.CreateElementResolved(tok.Name, tok.Attrs)
	doc.AppendChild(root)
	f.fbDoc = doc
	f.fbRoot = root
	f.fbCur = root
	f.fbDepth = 1
	f.idMark = len(sr.idJournal)
	f.refMark = len(sr.idrefs)
	sr.frames = append(sr.frames, f)
}

// feedFallback appends one token to the buffered subtree, mirroring
// dom.Parse's token-to-node mapping.
func (sr *streamRun) feedFallback(f *frame, tok *xmlparser.Token) {
	doc := f.fbDoc
	switch tok.Kind {
	case xmlparser.KindStartElement:
		e := doc.CreateElementResolved(tok.Name, tok.Attrs)
		f.fbCur.AppendChild(e)
		f.fbCur = e
		f.fbDepth++
	case xmlparser.KindEndElement:
		f.fbDepth--
		if f.fbDepth == 0 {
			sr.completeFallback(f)
			return
		}
		f.fbCur = f.fbCur.ParentNode()
	case xmlparser.KindText:
		if tok.Data() == "" {
			return
		}
		f.fbCur.AppendChild(doc.CreateTextNode(tok.Data()))
	case xmlparser.KindCData:
		f.fbCur.AppendChild(doc.CreateCDATASection(tok.Data()))
	case xmlparser.KindComment:
		f.fbCur.AppendChild(doc.CreateComment(tok.Data()))
	case xmlparser.KindProcInst:
		f.fbCur.AppendChild(doc.CreateProcessingInstruction(tok.Target, tok.Data()))
	}
}

// completeFallback validates the buffered subtree with the recursive DOM
// path, sharing the document-wide ID state and the observer (which sees
// the subtree's events from that run), or hands a raw subtree over.
func (sr *streamRun) completeFallback(f *frame) {
	sr.frames = sr.frames[:len(sr.frames)-1]
	sr.ns.Pop(f.nsMark)
	if f.raw {
		sr.events.RawElement(f.fbRoot)
	} else {
		// The nested run resolves prefixes its subtree does not declare
		// against the stream's scope, which holds the bindings outside it.
		nrun := &run{
			v:      sr.v,
			ids:    sr.ids,
			events: sr.events,
			outer:  sr.ns.Lookup,
			root:   f.fbRoot,
			base:   freeze(f),
			onIDInsert: func(id string) {
				sr.idJournal = append(sr.idJournal, id)
			},
		}
		nrun.element(f.fbRoot, f.decl, f.wild)
		// The locations the nested run recorded name elements of the
		// buffered subtree, which is released below: freeze the ones
		// that outlive it.
		z := subtreeSteps{root: f.fbRoot, base: nrun.base}
		for _, id := range sr.idJournal[f.idMark:] {
			sr.ids[id] = z.loc(sr.ids[id])
		}
		for _, ref := range nrun.idrefs {
			ref.at = z.loc(ref.at)
			sr.idrefs = append(sr.idrefs, ref)
		}
		for i := range nrun.viols {
			v := &nrun.viols[i]
			v.at = z.loc(v.at)
			if v.first != nil {
				*v = dupID(v.at, v.msg, z.loc(*v.first))
			}
		}
		sr.deliver(nrun.viols)
	}
	// The buffered subtree is private to this frame and the callbacks
	// above keep no node, so its pooled nodes can be recycled now.
	f.fbDoc.Release()
	f.fbDoc, f.fbRoot, f.fbCur = nil, nil, nil
	sr.recycle(f)
}

// finish resolves pending IDREFs, matching run.checkIDRefs.
func (sr *streamRun) finish() {
	for _, pending := range sr.idrefs {
		if len(sr.viols) >= maxViolations {
			return
		}
		if _, ok := sr.ids[pending.id]; !ok {
			sr.emit(violation{at: pending.at, msg: fmt.Sprintf("IDREF %q does not match any ID", pending.id)})
		}
	}
}
