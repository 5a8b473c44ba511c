package validator

import (
	"fmt"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// Violation is one validity error with its document location.
type Violation struct {
	// Path is an XPath-like location of the offending node, with 1-based
	// positional predicates for repeated siblings
	// (/purchaseOrder/items/item[2]) and an @name step for attributes.
	Path string
	// Msg is the human-readable description of the violation, phrased
	// against the schema component that was not satisfied.
	Msg string
}

// Error formats the violation.
func (v Violation) Error() string { return v.Path + ": " + v.Msg }

// Result collects the violations of one validation run. A Result is
// owned by its caller; the Validator keeps no reference to it after
// returning, so results from concurrent runs never share state.
type Result struct {
	// Violations are the collected validity errors in document order,
	// capped at maxViolations per run. Empty means the document is valid.
	Violations []Violation
}

// OK reports whether the document was valid.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a valid document and an error summarizing the
// violations otherwise.
func (r *Result) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		msgs = append(msgs, v.Error())
	}
	return fmt.Errorf("document is invalid:\n  %s", strings.Join(msgs, "\n  "))
}

// maxViolations bounds error collection.
const maxViolations = 100

// Options tunes validation. The zero value is the default configuration:
// full ID/IDREF checking and the lazy-DFA content-model executor.
type Options struct {
	// SkipIDChecks disables document-level ID uniqueness and IDREF
	// resolution (the paper-excluded extension); structural and
	// simple-type checking is unaffected.
	SkipIDChecks bool
	// DisableDFA turns off the lazy-DFA content-model executor and steps
	// the Glushkov automata as NFAs (the pre-DFA behavior). Verdicts and
	// messages are identical either way; the NFA path is the reference
	// the DFA parity tests and the E10 benchmarks compare against.
	DisableDFA bool
	// DFAStateBudget caps memoized DFA states per content model before a
	// run falls back to NFA stepping. Zero means
	// contentmodel.DefaultDFABudget.
	DFAStateBudget int
}

// Validator validates documents against one schema.
//
// A Validator is safe for concurrent use: any number of goroutines may
// call ValidateDocument, ValidateElement and ValidateBatch on one shared
// instance. All per-run state lives in a private run value, and the
// compiled content models are shared through a thread-safe cache
// (modelCache) that builds each complex type's automaton exactly once for
// the Validator's lifetime. The documents being validated are only read,
// never written — but callers must not mutate a document concurrently
// with its validation.
type Validator struct {
	schema *xsd.Schema
	opts   Options
	// models caches compiled content models per complex type, shared
	// across all runs (and all goroutines) of this Validator.
	models *modelCache
}

// New creates a validator for the schema. Passing nil opts selects the
// defaults (see Options). The schema must already be resolved and must
// not be mutated for the lifetime of the Validator.
func New(schema *xsd.Schema, opts *Options) *Validator {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	return &Validator{schema: schema, opts: o, models: newModelCache(schema, o)}
}

// ValidateDocument validates a whole document: the root element must match
// a global element declaration.
func (v *Validator) ValidateDocument(doc *dom.Document) *Result {
	return v.ValidateDocumentEvents(doc, nil)
}

// ValidateElement validates a subtree against a specific declaration.
func (v *Validator) ValidateElement(el *dom.Element, decl *xsd.ElementDecl) *Result {
	return v.ValidateElementEvents(el, decl, nil)
}

// document runs the walk over doc from its root element, which must match
// a global element declaration.
func (r *run) document(doc *dom.Document) {
	root := doc.DocumentElement()
	if root == nil {
		r.violate(pathLoc("/"), "document has no root element")
		return
	}
	r.anchor(root, "/"+root.TagName())
	name := xsd.QName{Space: root.NamespaceURI(), Local: root.LocalName()}
	decl, ok := r.v.schema.LookupElement(name)
	if !ok {
		r.violate(r.at(root), fmt.Sprintf("no global declaration for root element %s", name))
		return
	}
	r.element(root, decl, false)
	r.checkIDRefs()
}

// run carries one validation pass.
type run struct {
	v *Validator
	// viols are the recorded violations (capped at maxViolations), rendered
	// by result.
	viols []violation
	// root and base anchor the walk's locations: base is root's path
	// (location.go).
	root *dom.Element
	base *pathStep
	// ns holds the namespace declarations of the elements the walk is
	// inside, from the anchor down. outer, when set, resolves the prefixes
	// declared outside the anchor: the scope of the run a parallel sub-run
	// was split from (frozen while the sub-run works), or the streaming
	// walk's scope around a buffered subtree.
	ns    xmlparser.Bindings
	outer func(prefix string) (string, bool)
	// ids maps seen ID values to their locations; idrefs records pending
	// references, resolved once the whole document has been walked.
	ids    map[string]loc
	idrefs []pendingRef
	// onIDInsert, when set, observes every new ID insertion into ids.
	// The streaming path uses it to journal insertions so a failed
	// subtree's IDs can be rolled back for DOM-verdict parity.
	onIDInsert func(id string)
	// journal records ID events in subtree order when journaling is set;
	// parallel sub-runs use it so seams can be joined exactly (parallel.go).
	journal    []idEvent
	journaling bool
	// parWorkers, when > 1, makes every elementContent level with at
	// least ParallelMinFanout children fan out to that many workers;
	// cleared while a pool is running so splits never nest.
	parWorkers int
	// events, when non-nil, receives the walk's callbacks (events.go);
	// attrBuf is the scratch slice OpenElement's attributes are built in.
	events  StreamEvents
	attrBuf []Attr
}

// pendingRef is an IDREF awaiting resolution.
type pendingRef struct {
	id string
	at loc
}

// anchor makes the walk's locations relative to el, whose path is path.
func (r *run) anchor(el *dom.Element, path string) {
	r.root, r.base = el, &pathStep{tag: path}
}

// at locates el, which must be the anchor or a descendant of it.
func (r *run) at(el *dom.Element) loc { return loc{base: r.base, root: r.root, el: el} }

// full reports whether the violation cap is reached.
func (r *run) full() bool { return len(r.viols) >= maxViolations }

func (r *run) violate(at loc, msg string) {
	if !r.full() {
		r.viols = append(r.viols, violation{at: at, msg: msg})
	}
}

// result renders the recorded violations.
func (r *run) result() *Result { return &Result{Violations: render(r.viols)} }

// element validates el against its governing declaration; wild marks an
// element admitted by a content-model wildcard (for the observer).
func (r *run) element(el *dom.Element, decl *xsd.ElementDecl, wild bool) {
	if r.full() {
		return
	}
	mark := r.declare(el)
	typ, xsiType, nilled, ok := r.prologue(el, decl)
	if !ok {
		r.ns.Pop(mark)
		return
	}
	if r.events != nil {
		r.open(el, decl, typ, xsiType, nilled, wild)
	}
	// val is the parsed simple value, set only for an observer.
	var val *xsdtypes.Value
	switch t := typ.(type) {
	case *xsd.SimpleType:
		if nilled {
			r.nilledElement(el, decl)
		} else {
			val = r.simpleContent(el, t, decl)
		}
		r.checkNoAttributes(el)
	case *xsd.ComplexType:
		r.attributes(el, t)
		switch {
		case nilled:
			r.nilledElement(el, decl)
		case t.Kind == xsd.ContentSimple:
			val = r.complexSimpleContent(el, t)
		case t.Kind == xsd.ContentEmpty:
			r.emptyContent(el)
		default:
			// Element-only or mixed. Calling elementContent directly keeps
			// the walk at two stack frames per level.
			r.elementContent(el, t)
		}
	}
	if !nilled {
		r.checkIdentityConstraints(el, decl)
	}
	r.ns.Pop(mark)
	if r.events != nil {
		r.events.CloseElement(val)
	}
}

// prologue resolves el's effective type — xsi:type may substitute a
// derived type, which must not be abstract — and whether it is nilled. ok
// is false after a reported violation; the walk then skips the element.
// Kept out of element so the recursive walk's stack frames stay small.
func (r *run) prologue(el *dom.Element, decl *xsd.ElementDecl) (typ xsd.Type, xsiType, nilled, ok bool) {
	typ = decl.Type
	if lex := el.GetAttributeNS(xsd.XSINamespace, "type"); lex != "" {
		q, err := resolveQName(lex, r.namespace)
		if err != nil {
			r.violate(r.at(el), fmt.Sprintf("bad xsi:type %q: %v", lex, err))
			return nil, false, false, false
		}
		override, found := r.v.schema.LookupType(q)
		if !found {
			r.violate(r.at(el), fmt.Sprintf("xsi:type %s names an unknown type", q))
			return nil, false, false, false
		}
		if !derivesFromType(override, typ) {
			r.violate(r.at(el), fmt.Sprintf("xsi:type %s does not derive from the declared type", q))
			return nil, false, false, false
		}
		typ, xsiType = override, true
	}
	if ct, isCT := typ.(*xsd.ComplexType); isCT && ct.Abstract {
		r.violate(r.at(el), fmt.Sprintf("type %s is abstract; an xsi:type of a concrete derived type is required", ct.Name))
		return nil, false, false, false
	}
	if lex := el.GetAttributeNS(xsd.XSINamespace, "nil"); lex != "" {
		if !decl.Nillable {
			r.violate(r.at(el), "xsi:nil on a non-nillable element")
			return nil, false, false, false
		}
		nilled = lex == "true" || lex == "1"
	}
	return typ, xsiType, nilled, true
}

// open delivers OpenElement for an element that passed the prologue.
func (r *run) open(el *dom.Element, decl *xsd.ElementDecl, typ xsd.Type, xsiType, nilled, wild bool) {
	attrs := r.attrBuf[:0]
	for _, a := range el.Attributes() {
		if !isMetaAttr(a) {
			attrs = append(attrs, Attr{Name: xsd.QName{Space: a.Name().Space, Local: a.Name().Local}, Value: a.Value()})
		}
	}
	r.attrBuf = attrs
	r.events.OpenElement(ElementStart{Decl: decl, Type: typ, Name: xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()},
		Attrs: attrs, XSIType: xsiType, Nilled: nilled, Wildcard: wild})
}

// nilledElement checks the content rules of an xsi:nil="true" element
// (XSD 1.0 Part 1 §3.3.4 clause 3.2); its attributes are checked like any
// other element's.
func (r *run) nilledElement(el *dom.Element, decl *xsd.ElementDecl) {
	if decl.Fixed != nil {
		r.violate(r.at(el), msgNilFixed)
	}
	if len(el.ChildNodes()) > 0 {
		r.violate(r.at(el), "nilled element must be empty")
	}
}

// msgNilFixed reports xsi:nil on a declaration with a fixed value.
const msgNilFixed = "xsi:nil on an element with a fixed value"

// derivesFromType checks the derivation relation across simple/complex.
func derivesFromType(t, anc xsd.Type) bool {
	if t == anc {
		return true
	}
	switch x := t.(type) {
	case *xsd.ComplexType:
		return x.DerivesFrom(anc)
	case *xsd.SimpleType:
		if a, ok := anc.(*xsd.SimpleType); ok {
			return x.DerivesFrom(a)
		}
	}
	return false
}

// simpleContent validates character-only content. It returns the parsed
// value for the observer (nil without one, or when the text is invalid).
func (r *run) simpleContent(el *dom.Element, st *xsd.SimpleType, decl *xsd.ElementDecl) *xsdtypes.Value {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			r.violate(r.at(el), "element content is not allowed in a simple-type element")
			return nil
		}
	}
	text := el.TextContent()
	if decl != nil && decl.Fixed != nil && text == "" {
		text = *decl.Fixed
	}
	if decl != nil && decl.Default != nil && text == "" {
		text = *decl.Default
	}
	val, err := st.Parse(text)
	if err != nil {
		r.violate(r.at(el), err.Error())
		return nil
	}
	if decl != nil {
		if want, ok := decl.FixedValue(st); ok && !val.Equal(want) {
			r.violate(r.at(el), fmt.Sprintf("value %q does not equal the fixed value %q", text, *decl.Fixed))
		}
	}
	r.trackIDs(r.v.idKind(st), text, r.at(el))
	return r.observed(&val)
}

// observed returns a copy of *val for the observer, nil without one. Only
// the copy escapes, so a walk without an observer allocates nothing here.
func (r *run) observed(val *xsdtypes.Value) *xsdtypes.Value {
	if r.events == nil {
		return nil
	}
	v := *val
	return &v
}

// idKind names the ID-family builtin st derives from ("ID", "IDREF" or
// "IDREFS"), or "" when it is none of them or ID checks are off.
func (v *Validator) idKind(st *xsd.SimpleType) string {
	if v.opts.SkipIDChecks {
		return ""
	}
	if b := st.PrimitiveBuiltin(); b != nil {
		switch b.Name {
		case "ID", "IDREF", "IDREFS":
			return b.Name
		}
	}
	return ""
}

// trackIDs records an ID or IDREF value of the given idKind for
// document-level integrity.
func (r *run) trackIDs(kind, lexical string, at loc) {
	switch kind {
	case "ID":
		r.trackID(lexical, at)
	case "IDREF":
		r.trackIDRef(lexical, at)
	case "IDREFS":
		r.trackIDRefs(lexical, at)
	}
}

func (r *run) trackID(lexical string, at loc) {
	norm := strings.Join(strings.Fields(lexical), " ")
	prev, dup := r.ids[norm]
	if r.journaling {
		r.journal = append(r.journal, idEvent{id: norm, at: at, vioIdx: len(r.viols), dup: dup})
	}
	if dup {
		if !r.full() {
			r.viols = append(r.viols, dupID(at, norm, prev))
		}
	} else {
		r.ids[norm] = at
		if r.onIDInsert != nil {
			r.onIDInsert(norm)
		}
	}
}

func (r *run) trackIDRef(lexical string, at loc) {
	norm := strings.Join(strings.Fields(lexical), " ")
	r.idrefs = append(r.idrefs, pendingRef{id: norm, at: at})
}

func (r *run) trackIDRefs(lexical string, at loc) {
	norm := strings.Join(strings.Fields(lexical), " ")
	for _, ref := range strings.Fields(norm) {
		r.idrefs = append(r.idrefs, pendingRef{id: ref, at: at})
	}
}

// checkIDRefs resolves collected IDREFs against seen IDs.
func (r *run) checkIDRefs() {
	for _, pending := range r.idrefs {
		if r.full() {
			return
		}
		if _, ok := r.ids[pending.id]; !ok {
			r.violate(pending.at, fmt.Sprintf("IDREF %q does not match any ID", pending.id))
		}
	}
}

// checkNoAttributes flags attributes on simple-typed elements (only
// xsi:/xmlns are allowed).
func (r *run) checkNoAttributes(el *dom.Element) {
	for _, a := range el.Attributes() {
		if isMetaAttr(a) {
			continue
		}
		r.violate(r.at(el), fmt.Sprintf("attribute %q is not allowed on a simple-type element", a.NodeName()))
	}
}

func isMetaAttr(a *dom.Attr) bool {
	space := a.Name().Space
	return space == xmlparser.XMLNSNamespace || space == xsd.XSINamespace || space == xmlparser.XMLNamespace
}

// complexSimpleContent validates the character content of a complex type
// with simple content. It returns the parsed value like simpleContent.
func (r *run) complexSimpleContent(el *dom.Element, ct *xsd.ComplexType) *xsdtypes.Value {
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			r.violate(r.at(el), "element content is not allowed in simple content")
			return nil
		}
	}
	text := el.TextContent()
	val, err := ct.SimpleContentType.Parse(text)
	if err != nil {
		r.violate(r.at(el), err.Error())
	}
	r.trackIDs(r.v.idKind(ct.SimpleContentType), text, r.at(el))
	if err != nil {
		return nil
	}
	return r.observed(&val)
}

// emptyContent validates the content of a complex type with empty content.
func (r *run) emptyContent(el *dom.Element) {
	for _, c := range el.ChildNodes() {
		switch x := c.(type) {
		case *dom.Element:
			r.violate(r.at(el), fmt.Sprintf("element <%s> is not allowed in empty content", x.TagName()))
			return
		case *dom.Text:
			if strings.TrimSpace(x.Data) != "" {
				r.violate(r.at(el), "character data is not allowed in empty content")
				return
			}
		case *dom.CDATASection:
			r.violate(r.at(el), "character data is not allowed in empty content")
			return
		}
	}
}

// elementContent validates children against the content model.
func (r *run) elementContent(el *dom.Element, ct *xsd.ComplexType) {
	children, leaves, ok := r.match(el, ct)
	if !ok {
		return
	}
	if w := r.parWorkers; w > 1 && len(children) >= ParallelMinFanout {
		// Split this level across the pool. The flag is cleared while the
		// workers run (sub-runs never nest pools) and restored after the
		// join, so every sufficiently wide level splits — the walk descends
		// sequentially through narrow levels to find the fan-out.
		r.parWorkers = 0
		handled := r.parallelChildren(children, leaves, w)
		r.parWorkers = w
		if handled {
			return
		}
	}
	if r.events != nil && ct.Kind == xsd.ContentMixed {
		// Interleave the text with the children so the observer sees
		// mixed content in document order.
		i := 0
		for _, c := range el.ChildNodes() {
			switch x := c.(type) {
			case *dom.Element:
				if decl, wild, ok := r.childDecl(x, leaves[i]); ok {
					r.element(x, decl, wild)
				}
				i++
			case *dom.Text:
				r.events.MixedText(x.Data)
			case *dom.CDATASection:
				r.events.MixedText(x.Data)
			}
		}
		return
	}
	for i, child := range children {
		if decl, wild, ok := r.childDecl(child, leaves[i]); ok {
			r.element(child, decl, wild)
		}
	}
}

// match collects el's element children and matches them against ct's
// content model, reporting stray character data and a failed match. ok is
// false when the children are not to be validated. Kept out of
// elementContent so the recursive walk's stack frames stay small.
func (r *run) match(el *dom.Element, ct *xsd.ComplexType) (children []*dom.Element, leaves []*contentmodel.Leaf, ok bool) {
	var symbols []contentmodel.Symbol
	for _, c := range el.ChildNodes() {
		switch x := c.(type) {
		case *dom.Element:
			symbols = append(symbols, contentmodel.Symbol{Space: x.NamespaceURI(), Local: x.LocalName()})
			children = append(children, x)
		case *dom.Text:
			if ct.Kind != xsd.ContentMixed && strings.TrimSpace(x.Data) != "" {
				r.violate(r.at(el), fmt.Sprintf("character data %q is not allowed in element-only content", snippet(x.Data)))
			}
		case *dom.CDATASection:
			if ct.Kind != xsd.ContentMixed {
				r.violate(r.at(el), "character data is not allowed in element-only content")
			}
		}
	}
	leaves, merr := r.v.models.matcher(ct).Match(symbols)
	if merr != nil {
		switch {
		case merr.Index >= len(children):
			r.violate(r.at(el), merr.Error())
		case !r.full():
			// The offending child's step carries no positional predicate.
			r.violate(pathLoc(childPath(r.at(el).path(), children[merr.Index])), merr.Error())
		}
		return nil, nil, false
	}
	return children, leaves, true
}

// childDecl resolves the declaration governing a child matched to leaf;
// wild marks a wildcard admission. ok is false for a child that is not
// validated: a failed resolution (reported) or a lax wildcard match with
// no global declaration (handed to the observer as raw).
func (r *run) childDecl(child *dom.Element, leaf *contentmodel.Leaf) (decl *xsd.ElementDecl, wild, ok bool) {
	name := xsd.QName{Space: child.NamespaceURI(), Local: child.LocalName()}
	switch data := leaf.Data.(type) {
	case *xsd.ElementDecl:
		resolved, err := r.v.schema.ResolveChild(data, name)
		if err != nil {
			r.violate(r.at(child), err.Error())
			return nil, false, false
		}
		return resolved, false, true
	case *contentmodel.Wildcard:
		// Lax wildcard processing: validate when a global declaration
		// exists, accept otherwise.
		if gdecl, ok := r.v.schema.LookupElement(name); ok {
			return gdecl, true, true
		}
		if r.events != nil {
			r.events.RawElement(child)
		}
	}
	return nil, false, false
}

// attributes validates the attribute set of el against ct.
func (r *run) attributes(el *dom.Element, ct *xsd.ComplexType) {
	seen := map[xsd.QName]bool{}
	for _, a := range el.Attributes() {
		if isMetaAttr(a) {
			continue
		}
		name := xsd.QName{Space: a.Name().Space, Local: a.Name().Local}
		seen[name] = true
		use := ct.FindAttributeUse(name)
		if use == nil || use.Prohibited {
			if ct.AttrWildcard != nil && ct.AttrWildcard.Admits(name.Space) {
				continue
			}
			r.violate(r.at(el), fmt.Sprintf("attribute %q is not declared for this element", a.NodeName()))
			continue
		}
		val, err := use.Decl.Type.Parse(a.Value())
		if err != nil {
			r.violate(r.at(el), fmt.Sprintf("attribute %q: %v", a.NodeName(), err))
			continue
		}
		if want, ok := use.FixedValue(); ok && !val.Equal(want) {
			r.violate(r.at(el), fmt.Sprintf("attribute %q must have the fixed value %q", a.NodeName(), *use.Fixed))
		}
		if kind := r.v.idKind(use.Decl.Type); kind != "" {
			at := r.at(el)
			at.attr = a.NodeName()
			r.trackIDs(kind, a.Value(), at)
		}
	}
	for _, use := range ct.AttributeUses {
		if use.Required && !use.Prohibited && !seen[use.Decl.Name] {
			r.violate(r.at(el), fmt.Sprintf("required attribute %q is missing", use.Decl.Name.Local))
		}
	}
}

// resolveQName resolves a QName lexical value (an xsi:type) against the
// instance's namespace scope. lookup returns the URI bound to a prefix (""
// for the default namespace) and whether one is in scope: the DOM walk's
// run.namespace, the streaming walk's binding stack.
func resolveQName(lexical string, lookup func(prefix string) (string, bool)) (xsd.QName, error) {
	lexical = strings.TrimSpace(lexical)
	prefix, local := "", lexical
	if i := strings.IndexByte(lexical, ':'); i >= 0 {
		prefix, local = lexical[:i], lexical[i+1:]
	}
	if !xmlparser.IsNCName(local) || (prefix != "" && !xmlparser.IsNCName(prefix)) {
		return xsd.QName{}, fmt.Errorf("bad QName")
	}
	if prefix == "xml" {
		return xsd.QName{Space: xmlparser.XMLNamespace, Local: local}, nil
	}
	if uri, ok := lookup(prefix); ok {
		return xsd.QName{Space: uri, Local: local}, nil
	}
	if prefix != "" {
		return xsd.QName{}, fmt.Errorf("undeclared prefix %q", prefix)
	}
	return xsd.QName{Local: local}, nil
}

// declaredPrefix is the prefix a namespace declaration binds: the local
// name of xmlns:p, or "" for the default namespace's xmlns.
func declaredPrefix(n xmlparser.Name) string {
	if n.Local == "xmlns" {
		return ""
	}
	return n.Local
}

// declare pushes el's namespace declarations onto the walk's scope and
// returns the mark that pops them.
func (r *run) declare(el *dom.Element) int {
	mark := r.ns.Mark()
	for _, a := range el.Attributes() {
		if n := a.Name(); n.Space == xmlparser.XMLNSNamespace {
			r.ns.Push(declaredPrefix(n), a.Value())
		}
	}
	return mark
}

// namespace finds the innermost binding of prefix for the element being
// validated: in the walk's scope, then outside the anchor — through outer,
// or on the anchor's ancestors, which the walk never entered.
func (r *run) namespace(prefix string) (string, bool) {
	if uri, ok := r.ns.Lookup(prefix); ok {
		return uri, true
	}
	if r.outer != nil {
		return r.outer(prefix)
	}
	local := prefix
	if local == "" {
		local = "xmlns"
	}
	for n := r.root.ParentNode(); n != nil; n = n.ParentNode() {
		if e, ok := n.(*dom.Element); ok && e.HasAttributeNS(xmlparser.XMLNSNamespace, local) {
			return e.GetAttributeNS(xmlparser.XMLNSNamespace, local), true
		}
	}
	return "", false
}

// childPath appends a child step to a path.
func childPath(path string, child *dom.Element) string {
	return path + "/" + child.TagName()
}

// snippet truncates text for error messages.
func snippet(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 20 {
		return s[:20] + "..."
	}
	return s
}

// ValidateBytes parses and validates a serialized document in one step —
// the "marshalling" baseline of the paper's §7 related-work discussion.
func ValidateBytes(schema *xsd.Schema, src []byte) (*dom.Document, *Result) {
	doc, err := dom.Parse(src)
	if err != nil {
		res := &Result{Violations: []Violation{{Path: "/", Msg: err.Error()}}}
		return nil, res
	}
	return doc, New(schema, nil).ValidateDocument(doc)
}
