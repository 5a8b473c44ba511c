package validator

// The validation machine: the paper's §5–6 pipeline compiles content models
// to Glushkov automata precisely so validity can be decided one child at a
// time. streamRun drives the schema's compiled automata off a token stream
// with an explicit element/automaton-state stack — O(depth) memory, no
// recursion per element. It is the only validation walk: the decoder feeds
// it for the streaming entry points, bind's Marshal encoder for encoding,
// and a replay of a parsed tree (treeSource) for the DOM entry points.
//
// The verdict is not causal: when an element's content model fails, the
// element reports the one match error and none of its children's
// violations, and ID tracking forgets the abandoned subtree. By the time
// the automaton rejects, the prefix children have been validated, so two
// mechanisms keep the verdict exact:
//
//   - per-frame violation buffering: each open element accumulates its
//     attribute, text and child violations separately and assembles them
//     in document order at its end tag; a content-model failure drops
//     the buffered child violations wholesale.
//   - an ID journal: every insertion into the document-wide ID map is
//     journaled, and each frame records a high-water mark after its own
//     attributes; on content-model failure the IDs (and pending IDREFs)
//     recorded past the mark are rolled back.
//
// Three cases need the element as a DOM node: identity constraints (their
// selectors range over the whole subtree), content models compiled to the
// backtracking interpreter (contentmodel.ErrTooComplex), which match all
// children at once, and raw wildcard subtrees handed to an observer. A
// tree replay has the node at hand. From a decoder or encoder the machine
// buffers the element's subtree into a pooled fragment and replays the
// fragment into itself; nested cases then use the fragment's nodes, so
// nothing is buffered twice.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// StreamValidator validates documents incrementally from a token stream.
// Obtain one with Validator.Stream. It holds no per-run state, so a single
// StreamValidator (like its parent Validator) is safe for concurrent use:
// each ValidateReader/ValidateBytes call takes a private run and shares
// only the schema and its compiled content models.
type StreamValidator struct {
	v *Validator
}

// Stream returns a streaming front-end over the validator, with its
// options.
func (v *Validator) Stream() *StreamValidator { return &StreamValidator{v: v} }

// ValidateReader validates a document read incrementally from r. Memory
// use is proportional to tree depth (plus any subtrees buffered for
// identity constraints or interpreter models), not document size. The
// verdict, violation order and messages match ValidateBytes on the same
// input.
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
// one source; a replay of a parsed tree (the DOM entry points) is
// another, and bind's Marshal, which writes a value tree and yields the
// tokens of what it wrote, a third.
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
	sr := newMachine(sv.v, ev)
	res, err := sr.consume(ctx, src)
	sr.release()
	return res, err
}

// machines recycles validation machines: a released machine keeps its
// free frames (with their automaton runs and buffers), its ID map and its
// scratch slices, so validating a small document allocates little beyond
// its verdict.
var machines = sync.Pool{New: func() any { return &streamRun{ids: map[string]loc{}} }}

// A pooled machine keeps at most poolLimit frames, IDs, IDREFs and
// attributes per tag, and a pooled frame at most poolLimit buffered
// entries and poolText bytes of text: a machine that grew more is left to
// the collector, and a larger frame buffer is dropped, so what one large
// document grew is not held for later runs.
const (
	poolLimit = 256
	poolText  = 4096
)

// newMachine returns a cleared machine for a run over v.
func newMachine(v *Validator, ev StreamEvents) *streamRun {
	sr := machines.Get().(*streamRun)
	sr.v, sr.events = v, ev
	return sr
}

// release clears the document's state from the machine and returns it to
// the pool. It is called only after a run returns: a machine a panic left
// half-way is never reused.
func (sr *streamRun) release() {
	for _, f := range sr.frames {
		sr.recycle(f) // left open by a parse error or a cancellation
	}
	if cap(sr.frames) > poolLimit || cap(sr.free) > poolLimit || len(sr.ids) > poolLimit ||
		cap(sr.idJournal) > poolLimit || cap(sr.idrefs) > poolLimit ||
		cap(sr.attrSeen) > poolLimit || cap(sr.evAttrs) > poolLimit {
		return
	}
	for _, f := range sr.free {
		f.node, f.leaves, f.buf = nil, nil, nil // no reference into the document
		if cap(f.textBuf) > poolText {
			f.textBuf = nil
		}
		if cap(f.attrViols) > poolLimit {
			f.attrViols = nil
		}
		if cap(f.childViols) > poolLimit {
			f.childViols = nil
		}
		if cap(f.plainAttrs) > poolLimit {
			f.plainAttrs = nil
		}
		if cap(f.counts) > poolLimit {
			f.counts = nil
		}
	}
	clear(sr.ids)
	clear(sr.viols)
	clear(sr.idJournal)
	clear(sr.idrefs)
	clear(sr.evAttrs)
	clear(sr.attrSeen)
	*sr = streamRun{ids: sr.ids, free: sr.free, frames: sr.frames[:0], viols: sr.viols[:0],
		idJournal: sr.idJournal[:0], idrefs: sr.idrefs[:0], evAttrs: sr.evAttrs[:0], attrSeen: sr.attrSeen[:0]}
	machines.Put(sr)
}

// consume feeds the machine every token of src and renders the verdict.
func (sr *streamRun) consume(ctx context.Context, src TokenSource) (*Result, error) {
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
	}
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
	fmModel   = iota // complex element-only/mixed content: Glushkov run or matched children
	fmSimple         // simple-typed element
	fmCSimple        // complex type with simple content
	fmCEmpty         // complex type with empty content
	fmNilled         // xsi:nil="true" on a nillable element
	fmDead           // xsi:type/abstract/nil gate failed; subtree skipped
	fmBuffer         // subtree being buffered into a fragment for replay
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

	st  *xsd.SimpleType   // fmSimple / fmCSimple value type
	run *contentmodel.Run // fmModel automaton state

	// leaves, for a matched frame, are the leaves of the element children
	// not yet opened, in order.
	leaves []*contentmodel.Leaf

	// node is the element itself, for a frame with identity constraints,
	// which are checked over its subtree at the end tag.
	node *dom.Element

	// Buffered violations, assembled in document order at the end tag:
	// the element's own (its attributes', then stray character data's),
	// then its children's, which a content violation replaces.
	attrViols   []violation
	childViols  []violation
	contentViol *violation

	textBuf    []byte   // accumulated character data (fmSimple/fmCSimple)
	plainAttrs []string // simple types: non-meta attribute names, reported at the end tag

	counts  []childCount // child name -> occurrences, for positional steps
	idMark  int          // ID journal mark after own attributes
	refMark int          // pending-IDREF mark
	nsMark  int          // namespace-binding stack mark

	// evVal carries the parsed simple value from closeFrame to the
	// CloseElement callback.
	evVal *xsdtypes.Value

	// buf is the fragment an fmBuffer frame's subtree is buffered into.
	buf *fragment

	// Flags, kept together so that they pack:
	//   - mixed: the content model is mixed;
	//   - matched: the element children were matched all at once (an
	//     interpreter model, or a level split across workers), and leaves
	//     holds their leaves;
	//   - split: sub-machines validated the element children (parallel.go),
	//     and the replay skips them;
	//   - failed: contentViol is set;
	//   - sawElemChild: a simple-content element has an element child;
	//   - announced: OpenElement was delivered, so CloseElement is owed;
	//   - wild: a wildcard admitted the element;
	//   - raw: the buffered subtree is a skipped wildcard subtree, for the
	//     observer's RawElement rather than for replay;
	//   - pooled: the frame sits on the free list; reset clears it.
	mixed, matched, split, failed, sawElemChild, announced, wild, raw, pooled bool
}

// fragment is a subtree being buffered into a private DOM: cur is the open
// node new nodes append to, depth the number of elements open.
type fragment struct {
	doc   *dom.Document
	root  *dom.Element
	cur   dom.Node
	depth int
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
	attrViols, childViols := f.attrViols[:0], f.childViols[:0]
	plainAttrs, counts, textBuf := f.plainAttrs[:0], f.counts[:0], f.textBuf[:0]
	*f = frame{parent: parent, prefix: name.Prefix, local: name.Local, n: n, decl: decl, nsMark: nsMark,
		run: run, attrViols: attrViols,
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

	// Document-wide ID state. idJournal records insertions so failed
	// subtrees can be rolled back.
	ids       map[string]loc
	idJournal []string
	idrefs    []pendingRef

	// tree, when set, is the DOM replay the tokens come from: a parsed
	// document, or a subtree the machine buffered itself.
	tree *treeSource
	// rootDecl, when set, governs the root element in place of its global
	// declaration (ValidateElement).
	rootDecl *xsd.ElementDecl

	// Parallel validation (parallel.go): par > 1 splits wide levels across
	// that many workers. A sub-machine validating one chunk of a level
	// resolves prefixes it does not bind in outer, the parent machine's
	// scope (read-only while the chunks run), and with journal set leaves
	// a placeholder for each new ID where a duplicate would be reported.
	par     int
	outer   *xmlparser.Bindings
	journal bool
}

// pendingRef is an IDREF awaiting resolution.
type pendingRef struct {
	id string
	at loc
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
	// A new frame comes in one allocation with its automaton run and room
	// for one child name's count: a deep document opens one per level.
	a := new(struct {
		f      frame
		run    contentmodel.Run
		counts [1]childCount
	})
	a.f = frame{parent: parent, prefix: name.Prefix, local: name.Local, n: n, decl: decl, nsMark: nsMark,
		run: &a.run, counts: a.counts[:0]}
	return &a.f
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

// emit records a violation in the result. A sub-machine keeps them all:
// the cap applies to the joined document.
func (sr *streamRun) emit(v violation) {
	if len(sr.viols) < maxViolations || sr.journal {
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
	if f := sr.top(); f != nil && f.mode == fmBuffer {
		sr.feedBuffer(f, tok)
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

// declare pushes the start tag's namespace declarations onto the scope
// and returns the mark that pops them.
func (sr *streamRun) declare(tok *xmlparser.Token) int {
	nsMark := sr.ns.Mark()
	for i := range tok.Attrs {
		if a := &tok.Attrs[i]; a.IsNamespaceDecl {
			sr.ns.Push(declaredPrefix(a.Name), a.Value)
		}
	}
	return nsMark
}

func (sr *streamRun) startElement(tok *xmlparser.Token) {
	nsMark := sr.declare(tok)
	if len(sr.frames) == 0 {
		if sr.rootDone {
			sr.skipChild(nsMark)
			return
		}
		decl := sr.rootDecl
		if decl == nil {
			name := xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local}
			var ok bool
			if decl, ok = sr.v.schema.LookupElement(name); !ok {
				sr.emit(violation{at: pathLoc("/" + tok.Name.Qualified()), msg: fmt.Sprintf("no global declaration for root element %s", name)})
				sr.rootDone = true
				sr.skipChild(nsMark)
				return
			}
		}
		sr.openFrame(tok, sr.newFrame(nil, tok.Name, 1, decl, nsMark))
		return
	}
	parent := sr.top()
	switch parent.mode {
	case fmModel:
		if parent.failed || parent.split {
			sr.skipChild(nsMark)
			return
		}
		var leaf *contentmodel.Leaf
		if parent.matched {
			leaf = parent.leaves[0]
			parent.leaves = parent.leaves[1:]
		} else {
			var merr *contentmodel.MatchError
			leaf, merr = parent.run.Step(contentmodel.Symbol{Space: tok.Name.Space, Local: tok.Name.Local})
			if merr != nil {
				// The element reports the match error against the failing
				// child and validates no children at all: drop the
				// buffered child violations and roll back their IDs.
				parent.fail(violation{at: parent.childAt(tok.Name, 0), msg: merr.Error()})
				parent.childViols = nil
				sr.rollbackTo(parent)
				sr.skipChild(nsMark)
				return
			}
		}
		sr.openChild(parent, tok, leaf, parent.childIndex(tok.Name), nsMark)
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

// openChild opens the element of tok, a child of parent at same-name
// position n that its content model matched to leaf.
func (sr *streamRun) openChild(parent *frame, tok *xmlparser.Token, leaf *contentmodel.Leaf, n, nsMark int) {
	switch data := leaf.Data.(type) {
	case *xsd.ElementDecl:
		resolved, err := sr.v.schema.ResolveChild(data, xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local})
		if err != nil {
			sr.report(violation{at: parent.childAt(tok.Name, n), msg: err.Error()})
			sr.skipChild(nsMark)
			return
		}
		sr.openFrame(tok, sr.newFrame(parent, tok.Name, n, resolved, nsMark))
	case *contentmodel.Wildcard:
		// Lax wildcard processing: validate when a global declaration
		// exists, accept otherwise.
		switch gdecl, ok := sr.v.schema.LookupElement(xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local}); {
		case ok:
			f := sr.newFrame(parent, tok.Name, n, gdecl, nsMark)
			f.wild = true
			sr.openFrame(tok, f)
		case sr.events != nil && sr.tree != nil:
			sr.events.RawElement(sr.tree.cur)
			sr.skipChild(nsMark)
		case sr.events != nil:
			// Buffer the unvalidated subtree for RawElement.
			f := sr.newFrame(parent, tok.Name, n, nil, nsMark)
			f.raw = true
			sr.startBuffer(f, tok)
		default:
			sr.skipChild(nsMark)
		}
	default:
		sr.skipChild(nsMark)
	}
}

// report records a violation of a child that gets no frame of its own
// with the enclosing frame, or in the result when there is none (a
// sub-machine's chunk).
func (sr *streamRun) report(v violation) {
	if p := sr.top(); p != nil {
		p.childViols = append(p.childViols, v)
	} else {
		sr.emit(v)
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

// openFrame runs the element's prologue (xsi:type, abstract, xsi:nil) and
// pushes the frame for its content. f.wild marks a wildcard-admitted
// element for the observer.
func (sr *streamRun) openFrame(tok *xmlparser.Token, f *frame) {
	decl := f.decl
	typ := decl.Type
	if lex, _ := tok.Attr(xsd.XSINamespace, "type"); lex != "" {
		q, err := resolveQName(lex, sr.lookup)
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
			// rules after their violations.
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
	// Identity constraints and interpreter models need the element as a
	// node: a tree replay has it, and any other source's subtree is
	// buffered and replayed.
	needNode := len(decl.Constraints) > 0
	var m contentmodel.Matcher
	var g *contentmodel.Glushkov
	if ct, ok := typ.(*xsd.ComplexType); ok && (ct.Kind == xsd.ContentElementOnly || ct.Kind == xsd.ContentMixed) {
		m = ct.Matcher(sr.v.schema)
		g, _ = m.(*contentmodel.Glushkov)
		needNode = needNode || g == nil
	}
	if needNode && sr.tree == nil {
		sr.startBuffer(f, tok)
		return
	}
	if len(decl.Constraints) > 0 {
		f.node = sr.tree.cur
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
			if g == nil {
				sr.matchChildren(f, m, sr.tree.cur)
				break
			}
			f.run.ResetLimit(g, sr.v.opts.DisableDFA, sr.v.opts.DFAStateBudget)
			if sr.par > 1 && sr.tree != nil && wide(sr.tree.cur) {
				sr.matchChildren(f, f.run, sr.tree.cur)
				f.split = f.matched
			}
		}
	}
	f.idMark = len(sr.idJournal)
	f.refMark = len(sr.idrefs)
	sr.frames = append(sr.frames, f)
	sr.announce(f, typ, tok, false)
	if f.split {
		sr.splitChildren(f, sr.tree.cur)
	}
}

// matchChildren matches the element children of el, the frame's element,
// against its content model at once. On success the frame takes each
// child's leaf in turn; on failure it reports the match error and
// validates no children, as a stepped automaton would.
func (sr *streamRun) matchChildren(f *frame, m contentmodel.Matcher, el *dom.Element) {
	kids := el.ChildNodes()
	syms := make([]contentmodel.Symbol, 0, len(kids))
	for _, c := range kids {
		if e, ok := c.(*dom.Element); ok {
			syms = append(syms, contentmodel.Symbol{Space: e.NamespaceURI(), Local: e.LocalName()})
		}
	}
	leaves, merr := m.Match(syms)
	switch {
	case merr == nil:
		f.matched, f.leaves = true, leaves
	case merr.Index >= len(syms):
		f.fail(f.violation(merr.Error()))
	default:
		// The step of the offending child carries no positional predicate.
		i := 0
		for _, c := range kids {
			if e, ok := c.(*dom.Element); ok {
				if i == merr.Index {
					f.fail(violation{at: f.childAt(e.Name(), 0), msg: merr.Error()})
					return
				}
				i++
			}
		}
	}
}

// lookup resolves a prefix in the machine's scope, then in the scope
// outside a sub-machine's chunk.
func (sr *streamRun) lookup(prefix string) (string, bool) {
	if uri, ok := sr.ns.Lookup(prefix); ok || sr.outer == nil {
		return uri, ok
	}
	return sr.outer.Lookup(prefix)
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

// attributes validates the start tag's attributes against ct, buffering
// violations into the frame.
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

// trackIDs records an ID or IDREF value of the given idKind against the
// document-wide ID state, journaling insertions for rollback. Callers
// check idKind first, so an element that tracks nothing never freezes its
// frame.
func (sr *streamRun) trackIDs(kind, lexical string, at loc, viols *[]violation) {
	norm := strings.Join(strings.Fields(lexical), " ")
	switch kind {
	case "ID":
		if prev, dup := sr.ids[norm]; dup {
			*viols = append(*viols, dupID(at, norm, prev))
		} else {
			sr.ids[norm] = at
			sr.idJournal = append(sr.idJournal, norm)
			if sr.journal {
				*viols = append(*viols, seamID(at, norm))
			}
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
// frame's marks — the descendants of an element whose content failed.
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
	if !cdata && len(data) == 0 && sr.tree == nil {
		return // dom.Parse drops empty text nodes; a built tree may keep them
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
			f.attrViols = append(f.attrViols, f.violation("character data is not allowed in element-only content"))
		} else if len(bytes.TrimSpace(data)) != 0 {
			f.attrViols = append(f.attrViols, f.violation(fmt.Sprintf("character data %q is not allowed in element-only content", snippet(tok.Data()))))
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
	viols := sr.closeFrame(f)
	if f.node != nil {
		viols = checkIdentityConstraints(f, viols)
	}
	sr.deliver(viols)
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

// closeFrame assembles the frame's violations in document order:
// attributes, then content.
func (sr *streamRun) closeFrame(f *frame) []violation {
	switch f.mode {
	case fmModel:
		if !f.failed && !f.matched {
			if merr := f.run.End(); merr != nil {
				// Premature end: reported against the element, whose
				// children count for nothing.
				f.fail(f.violation(merr.Error()))
				f.childViols = nil
				sr.rollbackTo(f)
			}
		}
		if !f.failed && len(f.attrViols) == 0 {
			// Hot path: nothing buffered; deliver copies before recycle.
			return f.childViols
		}
		viols := make([]violation, 0, len(f.attrViols)+1)
		viols = append(viols, f.attrViols...)
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

// appendPlainAttrViols adds a simple-typed element's attribute violations:
// only xsi:, xml: and namespace attributes are allowed.
func (f *frame) appendPlainAttrViols(viols []violation) []violation {
	for _, name := range f.plainAttrs {
		viols = append(viols, f.violation(fmt.Sprintf("attribute %q is not allowed on a simple-type element", name)))
	}
	return viols
}

// startBuffer begins buffering the element's subtree into a private DOM
// fragment: for replay as a tree, or for RawElement when f.raw.
func (sr *streamRun) startBuffer(f *frame, tok *xmlparser.Token) {
	f.mode = fmBuffer
	doc := dom.NewPooledDocument()
	root := doc.CreateElementResolved(tok.Name, tok.Attrs)
	doc.AppendChild(root)
	f.buf = &fragment{doc: doc, root: root, cur: root, depth: 1}
	sr.frames = append(sr.frames, f)
}

// feedBuffer appends one token to the buffered subtree with dom.Parse's
// token-to-node mapping.
func (sr *streamRun) feedBuffer(f *frame, tok *xmlparser.Token) {
	b := f.buf
	switch tok.Kind {
	case xmlparser.KindStartElement:
		b.depth++
	case xmlparser.KindEndElement:
		b.depth--
		if b.depth == 0 {
			sr.completeBuffer(f)
			return
		}
		b.cur = b.cur.ParentNode()
		return
	}
	b.cur, _ = b.doc.AppendToken(b.cur, tok)
}

// completeBuffer hands a raw subtree to the observer, or replays a
// buffered subtree into the machine: its frame opens again, now with the
// element as a node, and the fragment's tokens follow. The start tag's
// namespace bindings are still in scope from when it was buffered.
func (sr *streamRun) completeBuffer(f *frame) {
	doc, root := f.buf.doc, f.buf.root
	f.buf = nil
	sr.frames = sr.frames[:len(sr.frames)-1]
	if f.raw {
		sr.ns.Pop(f.nsMark)
		sr.events.RawElement(root)
		sr.recycle(f)
	} else {
		src := newTreeSource(root)
		sr.tree = src
		var tok xmlparser.Token
		src.Next(&tok)
		sr.openFrame(&tok, f)
		for src.Next(&tok) == nil {
			sr.token(&tok)
		}
		sr.tree = nil
	}
	// The callbacks and frames keep no node past the replay, so the
	// fragment's pooled nodes can be recycled now.
	doc.Release()
}

// finish resolves pending IDREFs against the document's IDs.
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
