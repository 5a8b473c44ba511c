package validator

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/xsd"
)

// This file is the runtime support surface for ahead-of-time generated
// validators (internal/codegen's validator back end). A generated package
// compiles each content model and facet chain to straight-line Go, but it
// still shares one per-run state value with the interpreted walk: the
// violation list, the ID/IDREF tables, and the interpreted entry points it
// delegates cold paths to (xsi:type substitutions, identity constraints,
// declarations pruned out of the generated code). Sharing the run state is
// what makes delegation seamless — a subtree handed to the interpreter
// appends to the same capped violation list and the same ID table, so the
// combined verdict is byte-identical to a fully interpreted pass.

// Sink is the per-run state handle driven by generated validator code.
// Create one per document with NewSink; it is single-goroutine, like the
// interpreted run it wraps. Paths stay strings on this surface: a call that
// walks a subtree anchors the subtree's lazy locations at the path it is
// given.
type Sink struct {
	r run
}

// NewSink begins a generated validation run backed by v's schema, options
// and compiled-model cache.
func NewSink(v *Validator) *Sink {
	return &Sink{r: run{v: v, ids: map[string]loc{}}}
}

// Violate records one violation (capped like the interpreted walk).
func (s *Sink) Violate(path, msg string) {
	if !s.Full() {
		s.r.violate(pathLoc(path), msg)
	}
}

// Full reports whether the violation cap is reached; generated element
// code returns early on a full sink exactly where the interpreter would.
func (s *Sink) Full() bool { return s.r.full() }

// Element validates a subtree on the interpreted walk. Generated code
// delegates here for xsi:type substitutions, nilled elements and pruned
// declarations.
func (s *Sink) Element(el *dom.Element, decl *xsd.ElementDecl, path string) {
	s.r.anchor(el, path)
	s.r.element(el, decl, false)
}

// ElementContent validates children against ct's content model on the
// interpreted walk — the fallback when a model was too complex to emit.
func (s *Sink) ElementContent(el *dom.Element, ct *xsd.ComplexType, path string) {
	s.r.anchor(el, path)
	mark := s.r.declare(el)
	s.r.elementContent(el, ct)
	s.r.ns.Pop(mark)
}

// IdentityConstraints evaluates decl's key/keyref/unique constraints.
func (s *Sink) IdentityConstraints(el *dom.Element, decl *xsd.ElementDecl, path string) {
	s.r.anchor(el, path)
	s.r.checkIdentityConstraints(el, decl)
}

// TrackID records an ID value (uniqueness-checked); TrackIDRef and
// TrackIDRefs record pending references. All three are no-ops when the
// run's Options.SkipIDChecks is set, like the interpreted walk.
func (s *Sink) TrackID(lexical, path string) {
	if s.r.v.opts.SkipIDChecks {
		return
	}
	s.r.trackID(lexical, pathLoc(path))
}

// TrackIDRef records one pending IDREF.
func (s *Sink) TrackIDRef(lexical, path string) {
	if s.r.v.opts.SkipIDChecks {
		return
	}
	s.r.trackIDRef(lexical, pathLoc(path))
}

// TrackIDRefs records the whitespace-separated references of an IDREFS
// value.
func (s *Sink) TrackIDRefs(lexical, path string) {
	if s.r.v.opts.SkipIDChecks {
		return
	}
	s.r.trackIDRefs(lexical, pathLoc(path))
}

// CheckIDRefs resolves collected IDREFs against seen IDs (document end).
func (s *Sink) CheckIDRefs() { s.r.checkIDRefs() }

// Result returns the run's verdict; callers must not validate another
// document through the same Sink.
func (s *Sink) Result() *Result { return s.r.result() }

// IsMetaAttr reports whether an attribute is namespace/xsi/xml machinery
// that validation ignores.
func IsMetaAttr(a *dom.Attr) bool { return isMetaAttr(a) }

// ChildPath appends a child step to a path, as content-model match errors
// locate the offending child.
func ChildPath(path string, child *dom.Element) string { return childPath(path, child) }

// ChildPathIndexed appends a child step with the 1-based positional
// predicate the interpreted walk uses for repeated siblings.
func ChildPathIndexed(path string, child *dom.Element, counts map[string]int) string {
	counts[child.TagName()]++
	if n := counts[child.TagName()]; n > 1 {
		return fmt.Sprintf("%s/%s[%d]", path, child.TagName(), n)
	}
	return path + "/" + child.TagName()
}

// Snippet truncates character data for error messages.
func Snippet(s string) string { return snippet(s) }
