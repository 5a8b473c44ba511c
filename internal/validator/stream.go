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
// Every content model, counted ones and all groups included, steps one
// child at a time, and nothing else needs more than the token at hand:
// identity constraints are checked on the tokens as they pass (identity.go),
// and a raw wildcard subtree reaches the observer as the text it
// serializes to, written as its tokens pass (raw.go). Whatever the source,
// the machine builds no DOM.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/contentmodel"
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
// use is proportional to tree depth (plus the keys of open identity
// scopes), not document size. The verdict, violation order
// and messages match ValidateBytes on the same input.
func (sv *StreamValidator) ValidateReader(r io.Reader) *Result {
	res, _ := sv.ValidateReaderContext(context.Background(), r)
	return res
}

// ValidateReaderContext is ValidateReader with cancellation: when ctx is
// cancelled the run stops at the next token boundary, the partial verdict is discarded (a prefix
// proves nothing about the document) and the returned error is ctx.Err().
// A nil error means the stream was fully consumed and the Result is the
// same one ValidateReader would have produced.
//
// Cancellation is checked between tokens, so a Read blocked indefinitely
// on a dead reader is not interrupted by ctx alone; servers should pair
// the deadline with a transport-level one (net/http request bodies
// already fail their Reads when the connection closes).
func (sv *StreamValidator) ValidateReaderContext(ctx context.Context, r io.Reader) (*Result, error) {
	return sv.validateDecoder(ctx, r, nil, nil)
}

// ValidateBytes validates an in-memory document through the streaming
// path (no DOM is built). It is the drop-in counterpart of the package
// function ValidateBytes.
func (sv *StreamValidator) ValidateBytes(src []byte) *Result {
	res, _ := sv.validateDecoder(context.Background(), nil, src, nil)
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

// validateDecoder validates the document a decoder reads from r or, when r
// is nil, from src, and releases the decoder after it: the machine and the
// observer keep strings of the tokens, never the tokens themselves. The
// decoder reads names through the schema's symbols, so the machine steps
// by the IDs its tokens carry.
func (sv *StreamValidator) validateDecoder(ctx context.Context, r io.Reader, src []byte, ev StreamEvents) (*Result, error) {
	var d *xmlparser.Decoder
	if r != nil {
		d = xmlparser.NewReaderDecoder(r, &sv.v.names)
	} else {
		d = xmlparser.NewDecoder(src, &sv.v.names)
	}
	sr := newMachine(sv.v, ev)
	sr.symIDs = true
	res, err := sr.consume(ctx, d)
	sr.release()
	d.Release()
	return res, err
}

// machines recycles validation machines: a released machine keeps its
// first frames (with their automaton runs), its ID map and its scratch
// slices, so validating a small document allocates little beyond its
// verdict.
var machines = sync.Pool{New: func() any { return &streamRun{ids: map[string]loc{}} }}

// A pooled machine keeps at most poolLimit frames, and at most poolLimit
// IDs, IDREFs, attributes per tag and entries in each of its stacks, and
// poolText bytes of text: what one large document grew past that is left
// to the collector, so it is not held for later runs.
const (
	poolLimit = 256
	poolText  = 4096
)

// frameChunk is how many frames the machine allocates at once: a deep
// document opens tens of chunks, not a frame per level.
const frameChunk = 64

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
	sr.reset()
	machines.Put(sr)
}

// reset clears the document's state from the machine, keeping what the
// pool keeps. It clears only what the run used: the frames up to the
// deepest slot it wrote, and the stacks, whose popped entries were cleared
// as they were popped.
func (sr *streamRun) reset() {
	keep := poolLimit / frameChunk
	for i := range min(sr.used, keep*frameChunk) {
		f := sr.frame(i)
		f.elem = elem{} // no reference into the document
		f.run.Forget()
	}
	if len(sr.chunks) > keep {
		clear(sr.chunks[keep:])
		sr.chunks = sr.chunks[:keep]
	}
	ids := sr.ids
	if len(ids) > poolLimit {
		ids = map[string]loc{}
	}
	clear(ids)
	textBuf := sr.textBuf
	if cap(textBuf) > poolText {
		textBuf = nil
	}
	sr.keys.reset()
	sr.raw.reset()
	*sr = streamRun{chunks: sr.chunks, ids: ids, textBuf: textBuf[:0], keys: sr.keys, raw: sr.raw,
		own: scratch(sr.own), kids: scratch(sr.kids), counts: scratch(sr.counts),
		plain: scratch(sr.plain), idJournal: scratch(sr.idJournal), idrefs: scratch(sr.idrefs),
		evAttrs: scratch(sr.evAttrs[:cap(sr.evAttrs)]), attrSeen: scratch(sr.attrSeen[:cap(sr.attrSeen)])}
}

// scratch empties a stack or scratch slice for a pooled machine, clearing
// what it holds, or drops it if a document grew it past poolLimit. A
// per-tag scratch slice, which each tag refills from 0, is passed at its
// capacity.
func scratch[E any](s []E) []E {
	if cap(s) > poolLimit {
		return nil
	}
	clear(s)
	return s[:0]
}

// truncate pops a stack back to mark, clearing what it pops so that the
// pooled machine keeps nothing of the document past its length.
func truncate[E any](s []E, mark int32) []E {
	clear(s[mark:])
	return s[:mark]
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
	if sr.depth > 0 {
		// A source that ended inside the root: its open elements report
		// nothing, as they never closed.
		sr.kids = truncate(sr.kids, sr.frame(0).kidsMark)
	}
	sr.finish()
	return &Result{Violations: render(sr.kids)}, nil
}

// frame modes.
const (
	fmModel   = iota // complex element-only/mixed content: Glushkov run
	fmSimple         // simple-typed element
	fmCSimple        // complex type with simple content
	fmCEmpty         // complex type with empty content
	fmNilled         // xsi:nil="true" on a nillable element
	fmDead           // xsi:type/abstract/nil gate failed; subtree skipped
)

// frame is one open element. The frame at depth i is the machine's slot i,
// which every element opened at that depth reuses. It holds only what each
// level needs — its path step, its declaration, its automaton run, flags,
// and marks where its regions of the machine-level stacks start — so a
// level costs one compact slot, allocated frameChunk at a time.
type frame struct {
	elem
	run contentmodel.Run // fmModel automaton state; the slot keeps its buffers
}

// elem is what a frame holds of its element, written afresh by newFrame.
type elem struct {
	// parent is the enclosing frame; prefix:local, with n its 1-based
	// position among same-named siblings, is this element's path step,
	// frozen into step on first need (freeze). Once the element closes,
	// its slot still tells the parent's next child what the last child
	// was named and how many of that name came so far (childIndex).
	parent        *frame
	prefix, local string
	step          *pathStep

	decl *xsd.ElementDecl
	st   *xsd.SimpleType // fmSimple / fmCSimple value type

	n int32
	// Marks: where the frame's regions of the machine's own, kids and
	// counts stacks start; the ID journal and pending IDREFs after its own
	// attributes; and the namespace scope before its declarations. int32
	// suffices: a stack that long would not fit in memory.
	ownMark, kidsMark, countMark int32
	idMark, refMark, nsMark      int32

	mode uint8
	// Flags:
	//   - mixed: the content model is mixed;
	//   - failed: the kids region holds the content violation alone;
	//   - sawElemChild: a simple-content element has an element child;
	//   - announced: OpenElement was delivered, so CloseElement is owed;
	//   - wild: a wildcard admitted the element;
	//   - hadKid: a child has been counted, so the next slot holds its
	//     name and count.
	mixed, failed, sawElemChild, announced, wild, hadKid bool
}

// childCount tracks occurrences of one child name under a frame; the
// small linear list replaces a per-frame map (few distinct names per
// element).
type childCount struct {
	prefix, local string
	n             int32
}

// childIndex counts one more child named name under the innermost frame
// f and returns its 1-based position among same-named siblings. The next
// slot holds the last child's name and count, so a run of one name, and a
// chain, never touches the counts stack; a name's count moves there when a
// child of another name follows it.
func (sr *streamRun) childIndex(f *frame, name xmlparser.Name) int32 {
	next := sr.slot(sr.depth)
	n := int32(1)
	switch {
	case !f.hadKid:
		f.hadKid = true
	case next.local == name.Local && next.prefix == name.Prefix:
		n = next.n + 1
	default:
		if c := sr.count(f, next.prefix, next.local); c != nil {
			c.n = next.n
		} else {
			sr.counts = append(sr.counts, childCount{prefix: next.prefix, local: next.local, n: next.n})
		}
		if c := sr.count(f, name.Prefix, name.Local); c != nil {
			n = c.n + 1
		}
	}
	next.prefix, next.local, next.n = name.Prefix, name.Local, n
	return n
}

// count returns the innermost frame f's count of children named
// prefix:local on the counts stack, or nil.
func (sr *streamRun) count(f *frame, prefix, local string) *childCount {
	counts := sr.counts[f.countMark:]
	for i := range counts {
		if c := &counts[i]; c.local == local && c.prefix == prefix {
			return c
		}
	}
	return nil
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
			g.step = &pathStep{parent: g.parent.step, tag: tag, n: int(g.n)}
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
func (f *frame) childAt(name xmlparser.Name, n int32) loc {
	return loc{base: &pathStep{parent: freeze(f), tag: name.Qualified(), n: int(n)}}
}

// streamRun is one streaming validation pass.
type streamRun struct {
	v *Validator

	// chunks holds the frames, frameChunk at a time: the frame at depth i
	// (the root's is 0) is chunks[i/frameChunk][i%frameChunk]. depth
	// frames are open, cur the innermost of them (nil when none), and
	// used slots have been written this run.
	chunks    []*[frameChunk]frame
	depth     int
	cur       *frame
	used      int
	skipDepth int // >0: inside an unvalidated subtree
	rootDone  bool

	// The violations the open frames have buffered, assembled in document
	// order as each closes. own holds each frame's own violations (its
	// attributes', then stray character data's) from its ownMark; kids its
	// children's violations, or once its content failed the content
	// violation alone, from its kidsMark. A closing frame's list — own,
	// then kids — becomes part of its parent's kids region, and the region
	// below the root's, from 0, is the result. No list keeps entries past
	// maxViolations: they could never reach the result.
	own, kids []violation

	// counts holds the open frames' child-name counts, from each one's
	// countMark, for every name but its last child's (childIndex).
	counts []childCount

	// The character data and plain attribute names of a simple-typed
	// element: only the innermost frame collects them, since such an
	// element's children are skipped. text holds the first chunk of
	// character data, or textBuf all of it once there is a second.
	text    string
	textBuf []byte
	plain   []string

	// keys tracks the open identity scopes; raw writes the skipped
	// wildcard subtree owed to the observer's RawElement.
	keys identity
	raw  rawWriter

	// events, when non-nil, receives the structural callbacks; evAttrs is
	// the scratch slice OpenElement's attributes are built in, and evVal
	// the scratch the closing element's parsed simple value is kept in for
	// CloseElement (evSet: it holds that element's value).
	events  StreamEvents
	evAttrs []Attr
	evVal   xsdtypes.Value
	evSet   bool

	ns       xmlparser.Bindings // in-scope namespace declarations
	attrSeen []xsd.QName        // scratch for attributes()

	// Document-wide ID state. idJournal records insertions so failed
	// subtrees can be rolled back.
	ids       map[string]loc
	idJournal []string
	idrefs    []pendingRef

	// tree, when set, is the DOM replay the tokens come from.
	tree *treeSource
	// rootDecl, when set, governs the root element in place of its global
	// declaration (ValidateElement).
	rootDecl *xsd.ElementDecl

	// symIDs marks tokens whose SymbolID is an ID in the schema's Symbols:
	// those of a decoder the machine made itself (validateDecoder).
	// Other sources' IDs, if any, are ignored.
	symIDs bool
}

// pendingRef is an IDREF awaiting resolution.
type pendingRef struct {
	id string
	at loc
}

// frame returns the frame at depth i, which must have a slot.
func (sr *streamRun) frame(i int) *frame { return &sr.chunks[uint(i)/frameChunk][uint(i)%frameChunk] }

// slot returns the frame at depth i, allocating its chunk if it has none.
func (sr *streamRun) slot(i int) *frame {
	if i/frameChunk == len(sr.chunks) {
		sr.chunks = append(sr.chunks, new([frameChunk]frame))
	}
	sr.used = max(sr.used, i+1)
	return sr.frame(i)
}

// newFrame readies the next slot for the element name at same-name
// position n under parent. The caller opens it (push), with nothing
// pushed on any stack in between.
func (sr *streamRun) newFrame(parent *frame, name xmlparser.Name, n int32, decl *xsd.ElementDecl, nsMark int) *frame {
	f := sr.slot(sr.depth)
	f.elem = elem{parent: parent, prefix: name.Prefix, local: name.Local, n: n, decl: decl,
		ownMark: int32(len(sr.own)), kidsMark: int32(len(sr.kids)), countMark: int32(len(sr.counts)), nsMark: int32(nsMark)}
	return f
}

// push opens the frame newFrame readied.
func (sr *streamRun) push(f *frame) {
	sr.depth++
	sr.cur = f
}

// pop closes the innermost frame and returns it.
func (sr *streamRun) pop() *frame {
	f := sr.cur
	sr.depth--
	sr.cur = f.parent
	return f
}

// emit records a violation in the result, up to the cap. No frame is open.
func (sr *streamRun) emit(v violation) {
	if len(sr.kids) < maxViolations {
		sr.kids = append(sr.kids, v)
	}
}

// ownRoom reports whether a violation of the frame's own would be kept:
// callers check it before formatting one.
func (sr *streamRun) ownRoom(f *frame) bool { return len(sr.own)-int(f.ownMark) < maxViolations }

// addOwn records a violation of the innermost or the closing frame's own.
func (sr *streamRun) addOwn(f *frame, v violation) {
	if sr.ownRoom(f) {
		sr.own = append(sr.own, v)
	}
}

// fail records the frame's content violation in place of its buffered
// child violations, which are not delivered.
func (sr *streamRun) fail(f *frame, v violation) {
	f.failed = true
	sr.kids = append(truncate(sr.kids, f.kidsMark), v)
}

// skip marks the current start tag's subtree as unvalidated. The matching
// (possibly synthesized) end tag rebalances the counter.
func (sr *streamRun) skip() { sr.skipDepth = 1 }

// token dispatches one parse event. The identity tracker sees every token
// while a scope is open, unvalidated subtrees included, and the raw writer
// every token of the skipped subtree it writes.
func (sr *streamRun) token(tok *xmlparser.Token) {
	if sr.keys.active() {
		sr.keys.token(tok)
	}
	if sr.skipDepth > 0 {
		if sr.raw.active() && sr.raw.token(tok, sr.tree != nil) {
			sr.events.RawElement(sr.raw.name, sr.raw.finish())
		}
		switch tok.Kind {
		case xmlparser.KindStartElement:
			sr.skipDepth++
		case xmlparser.KindEndElement:
			sr.skipDepth--
		}
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
		if f := sr.cur; f != nil && f.mode == fmNilled && !f.failed {
			sr.fail(f, f.violation("nilled element must be empty"))
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
	if sr.depth == 0 {
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
	parent := sr.cur
	switch parent.mode {
	case fmModel:
		if parent.failed {
			sr.skipChild(nsMark)
			return
		}
		id := int32(-1)
		if sr.symIDs {
			id = tok.SymbolID()
		}
		leaf, merr := parent.run.StepID(contentmodel.Symbol{Space: tok.Name.Space, Local: tok.Name.Local}, id)
		if merr != nil {
			// The element reports the match error against the failing
			// child and validates no children at all: drop the buffered
			// child violations and roll back their IDs.
			sr.fail(parent, violation{at: parent.childAt(tok.Name, 0), msg: merr.Error()})
			sr.rollbackTo(parent)
			sr.skipChild(nsMark)
			return
		}
		sr.openChild(parent, tok, leaf, sr.childIndex(parent, tok.Name), nsMark)
	case fmSimple, fmCSimple:
		parent.sawElemChild = true
		sr.skipChild(nsMark)
	case fmCEmpty:
		if !parent.failed {
			sr.fail(parent, parent.violation(fmt.Sprintf("element <%s> is not allowed in empty content", tok.Name.Qualified())))
		}
		sr.skipChild(nsMark)
	case fmNilled:
		if !parent.failed {
			sr.fail(parent, parent.violation("nilled element must be empty"))
		}
		sr.skipChild(nsMark)
	default: // fmDead
		sr.skipChild(nsMark)
	}
}

// openChild opens the element of tok, a child of parent at same-name
// position n that its content model matched to leaf.
func (sr *streamRun) openChild(parent *frame, tok *xmlparser.Token, leaf *contentmodel.Leaf, n int32, nsMark int) {
	switch data := leaf.Data.(type) {
	case *xsd.ElementDecl:
		resolved, err := sr.v.schema.ResolveChild(data, xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local})
		if err != nil {
			if len(sr.kids)-int(parent.kidsMark) < maxViolations {
				sr.kids = append(sr.kids, violation{at: parent.childAt(tok.Name, n), msg: err.Error()})
			}
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
		case sr.events != nil:
			// The unvalidated subtree goes to RawElement as its text.
			sr.raw.token(tok, sr.tree != nil)
			sr.skipChild(nsMark)
		default:
			sr.skipChild(nsMark)
		}
	default:
		sr.skipChild(nsMark)
	}
}

// skipChild discards the bindings pushed for the current start tag and
// skips its subtree.
func (sr *streamRun) skipChild(nsMark int) {
	sr.ns.Pop(nsMark)
	sr.skip()
}

// announce delivers OpenElement for a frame that passed the prologue.
func (sr *streamRun) announce(f *frame, typ xsd.Type, tok *xmlparser.Token, nilled bool) {
	if sr.events == nil {
		return
	}
	f.announced = true
	if _, ok := typ.(*xsd.SimpleType); ok { // else attributes() built the list
		sr.evAttrs = sr.evAttrs[:0]
		for i := range tok.Attrs {
			if a := &tok.Attrs[i]; !isMetaAttrName(a.Name) {
				sr.evAttrs = append(sr.evAttrs, Attr{Name: xsd.QName{Space: a.Name.Space, Local: a.Name.Local}, Value: a.Value})
			}
		}
	}
	xsiType, _ := tok.Attr(xsd.XSINamespace, "type")
	sr.events.OpenElement(ElementStart{Decl: f.decl, Type: typ, Name: xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local},
		Attrs: sr.evAttrs, XSIType: xsiType != "", Nilled: nilled, Wildcard: f.wild})
}

// openFrame runs the element's prologue (xsi:type, abstract, xsi:nil) and
// pushes the frame for its content. f.wild marks a wildcard-admitted
// element for the observer.
func (sr *streamRun) openFrame(tok *xmlparser.Token, f *frame) {
	decl := f.decl
	if decl.Abstract {
		// A root or a wildcard match: content models admit no abstract
		// element (ResolveChild).
		sr.pushDead(f, fmt.Sprintf("element %s is abstract and cannot appear in instances", decl.Name))
		return
	}
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
			// rules after their violations.
			f.mode = fmNilled
			switch t := typ.(type) {
			case *xsd.SimpleType:
				sr.collectPlainAttrs(tok)
			case *xsd.ComplexType:
				sr.attributes(f, tok, t)
			}
			sr.push(f)
			sr.announce(f, typ, tok, true)
			return
		}
	}
	if len(decl.Constraints) > 0 {
		sr.keys.openScope(decl, tok)
	}
	switch t := typ.(type) {
	case *xsd.SimpleType:
		f.mode = fmSimple
		f.st = t
		sr.collectPlainAttrs(tok)
		sr.text, sr.textBuf = "", sr.textBuf[:0]
	case *xsd.ComplexType:
		sr.attributes(f, tok, t)
		switch t.Kind {
		case xsd.ContentSimple:
			f.mode = fmCSimple
			f.st = t.SimpleContentType
			sr.text, sr.textBuf = "", sr.textBuf[:0]
		case xsd.ContentEmpty:
			f.mode = fmCEmpty
		default:
			f.mode = fmModel
			f.mixed = t.Kind == xsd.ContentMixed
			f.run.ResetLimit(t.Matcher(sr.v.schema), sr.v.opts.DisableDFA, sr.v.opts.DFAStateBudget)
		}
	}
	f.idMark = int32(len(sr.idJournal))
	f.refMark = int32(len(sr.idrefs))
	sr.push(f)
	sr.announce(f, typ, tok, false)
}

func (sr *streamRun) pushDead(f *frame, msg string) {
	f.mode = fmDead
	sr.fail(f, f.violation(msg))
	sr.push(f)
}

// collectPlainAttrs records the start tag's non-meta attribute names for
// the simple-type "not allowed" check at the end tag.
func (sr *streamRun) collectPlainAttrs(tok *xmlparser.Token) {
	for i := range tok.Attrs {
		if a := &tok.Attrs[i]; !isMetaAttrName(a.Name) {
			sr.plain = append(sr.plain, a.Name.Qualified())
		}
	}
}

func isMetaAttrName(n xmlparser.Name) bool {
	return n.Space == xmlparser.XMLNSNamespace || n.Space == xsd.XSINamespace || n.Space == xmlparser.XMLNamespace
}

// attributes validates the start tag's attributes against ct, buffering
// violations as the frame's own, and the observer's list of them, typed.
// A violation past the cap is neither formatted nor located.
func (sr *streamRun) attributes(f *frame, tok *xmlparser.Token, ct *xsd.ComplexType) {
	seen, evAttrs := sr.attrSeen[:0], sr.evAttrs[:0]
	for i := range tok.Attrs {
		a := &tok.Attrs[i]
		if isMetaAttrName(a.Name) {
			continue
		}
		name := xsd.QName{Space: a.Name.Space, Local: a.Name.Local}
		seen = append(seen, name)
		if sr.events != nil {
			evAttrs = append(evAttrs, Attr{Name: name, Value: a.Value})
		}
		use := ct.FindAttributeUse(name)
		if use == nil || use.Prohibited {
			if ct.AttrWildcard != nil && ct.AttrWildcard.Admits(name.Space) {
				continue
			}
			if sr.ownRoom(f) {
				sr.own = append(sr.own, f.violation(fmt.Sprintf("attribute %q is not declared for this element", a.Name.Qualified())))
			}
			continue
		}
		val, err := use.Decl.Type.Parse(a.Value)
		if err != nil {
			if sr.ownRoom(f) {
				sr.own = append(sr.own, f.violation(fmt.Sprintf("attribute %q: %v", a.Name.Qualified(), err)))
			}
			continue
		}
		if sr.events != nil {
			evAttrs[len(evAttrs)-1].Val, evAttrs[len(evAttrs)-1].Typed = val, true
		}
		if want, ok := use.FixedValue(); ok && !val.Equal(want) && sr.ownRoom(f) {
			sr.own = append(sr.own, f.violation(fmt.Sprintf("attribute %q must have the fixed value %q", a.Name.Qualified(), *use.Fixed)))
		}
		if kind := idKind(use.Decl.Type); kind != "" {
			sr.trackIDs(f, kind, val, f.at(a.Name.Qualified()))
		}
	}
	for _, use := range ct.AttributeUses {
		if use.Required && !use.Prohibited && sr.ownRoom(f) && !slices.Contains(seen, use.Decl.Name) {
			sr.own = append(sr.own, f.violation(fmt.Sprintf("required attribute %q is missing", use.Decl.Name.Local)))
		}
	}
	sr.attrSeen, sr.evAttrs = seen[:0], evAttrs
}

// trackIDs records the ID or IDREF values of val, parsed in a type of the
// given idKind, against the document-wide ID state, journaling insertions
// for rollback; a duplicate ID is one of f's own violations. The values
// are the parsed, whitespace-collapsed forms, an IDREFS value's from its
// items. They may view the machine's text buffer, so each string the ID
// state or a violation keeps is copied. Callers check idKind first, so an
// element that tracks nothing never freezes its frame.
func (sr *streamRun) trackIDs(f *frame, kind string, val xsdtypes.Value, at loc) {
	switch kind {
	case "ID":
		if prev, dup := sr.ids[val.Str]; dup {
			sr.addOwn(f, dupID(at, strings.Clone(val.Str), prev))
		} else {
			id := strings.Clone(val.Str)
			sr.ids[id] = at
			sr.idJournal = append(sr.idJournal, id)
		}
	case "IDREF":
		sr.idrefs = append(sr.idrefs, pendingRef{id: strings.Clone(val.Str), at: at})
	case "IDREFS":
		for _, ref := range val.List() {
			sr.idrefs = append(sr.idrefs, pendingRef{id: strings.Clone(ref.Str), at: at})
		}
	}
}

// rollbackTo undoes ID insertions and pending IDREFs recorded after the
// frame's marks — the descendants of an element whose content failed.
func (sr *streamRun) rollbackTo(f *frame) {
	for _, id := range sr.idJournal[f.idMark:] {
		delete(sr.ids, id)
	}
	sr.idJournal = truncate(sr.idJournal, f.idMark)
	sr.idrefs = truncate(sr.idrefs, f.refMark)
}

// textNode consumes a character-data or CDATA token. It works on the
// token's zero-copy byte view: whitespace checks and simple-content
// accumulation never materialize a string, so pure scanning stays
// allocation-free. Strings are built only when a violation needs a
// snippet or a binding consumer wants the mixed text.
func (sr *streamRun) textNode(tok *xmlparser.Token, cdata bool) {
	f := sr.cur
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
		switch {
		case !sr.ownRoom(f):
		case cdata:
			sr.own = append(sr.own, f.violation("character data is not allowed in element-only content"))
		case len(bytes.TrimSpace(data)) != 0:
			sr.own = append(sr.own, f.violation(fmt.Sprintf("character data %q is not allowed in element-only content", snippet(tok.Data()))))
		}
	case fmSimple, fmCSimple:
		// A tree replay's token holds its text node's own string: text
		// in one such chunk is kept rather than copied out of a buffer,
		// and a second chunk starts the buffer. A decoder's bytes are
		// copied, as asking for its token's string would intern them.
		if sr.tree != nil && sr.text == "" && len(sr.textBuf) == 0 {
			sr.text = tok.Data()
			break
		}
		if sr.text != "" {
			sr.textBuf = append(sr.textBuf, sr.text...)
			sr.text = ""
		}
		sr.textBuf = append(sr.textBuf, data...)
	case fmCEmpty:
		// Empty content admits no character children, whitespace
		// included (XML Schema Part 1 §3.4.4, clause 2.1); an empty text
		// node a built tree keeps is none.
		if !f.failed && (cdata || len(data) != 0) {
			sr.fail(f, f.violation("character data is not allowed in empty content"))
		}
	case fmNilled:
		if !f.failed {
			sr.fail(f, f.violation("nilled element must be empty"))
		}
	}
}

// endElement closes the innermost frame: its violations, its own then its
// kids region, become part of its parent's kids region, followed by its
// plain attributes' and its identity constraints' violations, up to the
// cap of the parent's region.
func (sr *streamRun) endElement() {
	if sr.depth == 0 {
		return
	}
	f := sr.pop()
	sr.ns.Pop(int(f.nsMark))
	sr.evSet = false
	sr.closeFrame(f)
	if own := sr.own[f.ownMark:]; len(own) > 0 {
		sr.kids = slices.Insert(sr.kids, int(f.kidsMark), own...)
		sr.own = truncate(sr.own, f.ownMark)
	}
	mark := int32(0)
	if p := sr.cur; p != nil {
		mark = p.kidsMark
	} else {
		sr.rootDone = true
	}
	if len(sr.plain) > 0 {
		for _, name := range sr.plain {
			if len(sr.kids)-int(mark) >= maxViolations {
				break
			}
			sr.kids = append(sr.kids, f.violation(fmt.Sprintf("attribute %q is not allowed on a simple-type element", name)))
		}
		sr.plain = truncate(sr.plain, 0)
	}
	if sr.keys.closing() {
		sr.keys.closeScope(func(msg string) { sr.kids = append(sr.kids, f.violation(msg)) })
	}
	if len(sr.kids)-int(mark) > maxViolations {
		sr.kids = truncate(sr.kids, mark+maxViolations)
	}
	if len(sr.counts) > int(f.countMark) {
		sr.counts = truncate(sr.counts, f.countMark)
	}
	if f.announced {
		var val *xsdtypes.Value
		if sr.evSet {
			val = &sr.evVal
		}
		sr.events.CloseElement(val)
	}
}

// closeFrame adds the closing frame's last violations: a model's premature
// end, in place of its children's, and a simple value's, after its
// attributes'.
func (sr *streamRun) closeFrame(f *frame) {
	switch f.mode {
	case fmModel:
		if !f.failed {
			if merr := f.run.End(); merr != nil {
				// Premature end: reported against the element, whose
				// children count for nothing.
				sr.fail(f, f.violation(merr.Error()))
				sr.rollbackTo(f)
			}
		}
	case fmSimple:
		if f.sawElemChild {
			sr.addOwn(f, f.violation("element content is not allowed in a simple-type element"))
			return
		}
		text := sr.textValue(f)
		if f.decl.Fixed != nil && text == "" {
			text = *f.decl.Fixed
		}
		if f.decl.Default != nil && text == "" {
			text = *f.decl.Default
		}
		val, err := f.st.Parse(text)
		if err != nil {
			sr.addOwn(f, f.violation(err.Error()))
			return
		}
		sr.observe(f, val)
		if want, ok := f.decl.FixedValue(f.st); ok && !val.Equal(want) {
			sr.addOwn(f, f.violation(fmt.Sprintf("value %q does not equal the fixed value %q", text, *f.decl.Fixed)))
		}
		if kind := idKind(f.st); kind != "" {
			sr.trackIDs(f, kind, val, f.at(""))
		}
	case fmCSimple:
		if f.sawElemChild {
			sr.addOwn(f, f.violation("element content is not allowed in simple content"))
			return
		}
		text := sr.textValue(f)
		val, err := f.st.Parse(text)
		if err != nil {
			if sr.ownRoom(f) {
				sr.own = append(sr.own, f.violation(err.Error()))
			}
		} else {
			sr.observe(f, val)
		}
		if kind := idKind(f.st); kind != "" {
			if err != nil {
				val = lexicalIDs(kind, text)
			}
			sr.trackIDs(f, kind, val, f.at(""))
		}
	case fmNilled:
		if f.decl.Fixed != nil {
			sr.addOwn(f, f.violation(msgNilFixed))
		}
	}
	// fmCEmpty, fmDead: the own violations, then the content violation,
	// stand as they are.
}

// observe keeps the element's parsed simple value in the run's scratch
// for its CloseElement callback, which follows before the next element
// closes.
func (sr *streamRun) observe(f *frame, val xsdtypes.Value) {
	if f.announced {
		sr.evVal, sr.evSet = val, true
	}
}

// lexicalIDs is the value trackIDs reads for simple content that failed
// its type of the given idKind: its collapsed text, split into items for
// IDREFS. Such a value still takes part in ID matching.
func lexicalIDs(kind, text string) xsdtypes.Value {
	if kind != "IDREFS" {
		return xsdtypes.Value{Kind: xsdtypes.VString, Str: strings.Join(strings.Fields(text), " ")}
	}
	var items []xsdtypes.Value
	for _, ref := range strings.Fields(text) {
		items = append(items, xsdtypes.Value{Kind: xsdtypes.VString, Str: ref})
	}
	return xsdtypes.ListValue(items)
}

// textValue returns the closing frame's character data. Text buffered in
// textBuf is returned as a view of the buffer, which the next
// simple-typed element reuses: the parse, the checks and the violations'
// messages read the view and keep nothing of it, and trackIDs copies the
// IDs it keeps. Only an announced frame's text is copied, since the
// observer may keep the strings of the value parsed from it.
func (sr *streamRun) textValue(f *frame) string {
	switch {
	case len(sr.textBuf) == 0:
		return sr.text
	case f.announced:
		return string(sr.textBuf)
	}
	return unsafe.String(unsafe.SliceData(sr.textBuf), len(sr.textBuf))
}

// finish resolves pending IDREFs against the document's IDs.
func (sr *streamRun) finish() {
	for _, pending := range sr.idrefs {
		if len(sr.kids) >= maxViolations {
			return
		}
		if _, ok := sr.ids[pending.id]; !ok {
			sr.emit(violation{at: pending.at, msg: fmt.Sprintf("IDREF %q does not match any ID", pending.id)})
		}
	}
}
