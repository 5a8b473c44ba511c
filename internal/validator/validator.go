package validator

import (
	"fmt"
	"strings"

	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
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
	// DisableDFA turns off the lazy-DFA content-model executor: this
	// Validator's runs step the Glushkov automata as NFAs (the pre-DFA
	// behavior). Verdicts and messages are identical either way; the NFA
	// path is the reference the DFA parity tests and the E10 benchmarks
	// compare against.
	DisableDFA bool
	// DFAStateBudget caps the states a run may grow a content model's
	// shared DFA to before it falls back to NFA stepping. Zero means
	// contentmodel.DefaultDFABudget.
	DFAStateBudget int
}

// Validator validates documents against one schema.
//
// A Validator is safe for concurrent use: any number of goroutines may
// call ValidateDocument and ValidateElement, and run its StreamValidator,
// on one shared instance. All per-run state lives in a private machine (streamRun); the
// compiled content models belong to the schema (xsd.ComplexType.Matcher),
// which builds each once for every Validator and every other consumer, so
// a Validator is cheap to create. The documents being validated are only
// read, never written — but callers must not mutate a document
// concurrently with its validation.
type Validator struct {
	schema *xsd.Schema
	opts   Options
	// names are the decoder options of the validator's own parses: element
	// names read through the schema's Symbols.
	names xmlparser.Options
}

// New creates a validator for the schema. Passing nil opts selects the
// defaults (see Options). The schema must already be resolved and must
// not be mutated for the lifetime of the Validator.
func New(schema *xsd.Schema, opts *Options) *Validator {
	o := Options{}
	if opts != nil {
		o = *opts
	}
	return &Validator{schema: schema, opts: o, names: xmlparser.Options{Namespaces: true, Names: schema.Symbols()}}
}

// ValidateDocument validates a whole document: the root element must match
// a global element declaration. The tree is replayed into the validation
// machine (stream.go) as tokens.
func (v *Validator) ValidateDocument(doc *dom.Document) *Result {
	return v.ValidateDocumentEvents(doc, nil)
}

// ValidateElement validates a subtree against a specific declaration.
func (v *Validator) ValidateElement(el *dom.Element, decl *xsd.ElementDecl) *Result {
	return v.ValidateElementEvents(el, decl, nil)
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

// idKind names the ID-family builtin st derives from ("ID", "IDREF" or
// "IDREFS"), or "" when it is none of them.
func idKind(st *xsd.SimpleType) string {
	if b := st.PrimitiveBuiltin(); b != nil {
		switch b.Name {
		case "ID", "IDREF", "IDREFS":
			return b.Name
		}
	}
	return ""
}

// resolveQName resolves a QName lexical value (an xsi:type) against the
// instance's namespace scope. lookup returns the URI bound to a prefix (""
// for the default namespace) and whether one is in scope.
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
	v := New(schema, nil)
	doc, err := v.Parse(src)
	if err != nil {
		res := &Result{Violations: []Violation{{Path: "/", Msg: err.Error()}}}
		return nil, res
	}
	return doc, v.ValidateDocument(doc)
}

// Parse parses a document as dom.Parse does, reading element names
// through the schema's Symbols: the validator then replays the tree with
// each element's symbol ID and steps the content models by it, without
// resolving names again.
func (v *Validator) Parse(src []byte) (*dom.Document, error) {
	return dom.ParseWithOptions(src, &v.names)
}
