package vdom

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/dom"
	"repro/internal/normalize"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// Node is implemented by every generated V-DOM type.
type Node interface {
	// VDOMName returns the generated interface name in the paper's
	// style, e.g. "shipToElement" or "PurchaseOrderTypeType".
	VDOMName() string
}

// ElementNode is a generated element wrapper: it writes itself as XML.
type ElementNode interface {
	Node
	// WriteXML writes the element to w, performing the deferred dynamic
	// checks (occurrence counts, required members and attributes). It
	// reports the first violated constraint.
	WriteXML(w *Writer) error
}

// Runtime binds generated code to its schema: it resolves the components
// behind generated type names so that value checks use the exact facets
// of the schema the bindings were generated from.
type Runtime struct {
	Schema *xsd.Schema
	Norm   *normalize.Result

	typesByName map[string]xsd.Type

	streamOnce sync.Once
	stream     *validator.StreamValidator
}

// NewRuntime parses the schema source and recomputes the (deterministic)
// normalization the generator used.
func NewRuntime(schemaSource string, scheme normalize.Scheme) (*Runtime, error) {
	s, err := xsd.ParseString(schemaSource, nil)
	if err != nil {
		return nil, err
	}
	n, err := normalize.Normalize(s, scheme)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{Schema: s, Norm: n, typesByName: map[string]xsd.Type{}}
	for t, name := range n.TypeNames {
		rt.typesByName[name] = t
	}
	return rt, nil
}

// MustRuntime is NewRuntime for schema text known to be valid (generated
// code embeds the schema it was generated from).
func MustRuntime(schemaSource string, scheme normalize.Scheme) *Runtime {
	rt, err := NewRuntime(schemaSource, scheme)
	if err != nil {
		panic(err)
	}
	return rt
}

// Type resolves a generated type name to its schema component.
func (rt *Runtime) Type(generatedName string) (xsd.Type, bool) {
	t, ok := rt.typesByName[generatedName]
	return t, ok
}

// SimpleType resolves a generated name that must denote a simple type.
func (rt *Runtime) SimpleType(generatedName string) *xsd.SimpleType {
	t, ok := rt.typesByName[generatedName]
	if !ok {
		panic("vdom: generated name " + generatedName + " not found in schema")
	}
	st, ok := t.(*xsd.SimpleType)
	if !ok {
		panic("vdom: generated name " + generatedName + " is not a simple type")
	}
	return st
}

// ComplexType resolves a generated name that must denote a complex type.
func (rt *Runtime) ComplexType(generatedName string) *xsd.ComplexType {
	t, ok := rt.typesByName[generatedName]
	if !ok {
		panic("vdom: generated name " + generatedName + " not found in schema")
	}
	ct, ok := t.(*xsd.ComplexType)
	if !ok {
		panic("vdom: generated name " + generatedName + " is not a complex type")
	}
	return ct
}

// CheckSimple validates a lexical value against a named simple type. This
// is the dynamic residue of type restriction (§3: "to enforce the
// restricted values validation checks at runtime are necessary").
func (rt *Runtime) CheckSimple(typeName, lexical string) error {
	return rt.SimpleType(typeName).Validate(lexical)
}

// CheckAttr validates an attribute value against the attribute's declared
// type within a named complex type, including fixed-value constraints.
func (rt *Runtime) CheckAttr(typeName, attrLocal, lexical string) error {
	ct := rt.ComplexType(typeName)
	var use *xsd.AttributeUse
	for _, u := range ct.AttributeUses {
		if u.Decl.Name.Local == attrLocal {
			use = u
			break
		}
	}
	if use == nil {
		// Generated code only emits setters for declared attributes,
		// so this indicates schema drift.
		return fmt.Errorf("vdom: attribute %q is not declared on %s", attrLocal, typeName)
	}
	v, err := use.Decl.Type.Parse(lexical)
	if err != nil {
		return fmt.Errorf("attribute %q: %w", attrLocal, err)
	}
	if want, ok := use.FixedValue(); ok && !v.Equal(want) {
		return fmt.Errorf("attribute %q must have the fixed value %q", attrLocal, *use.Fixed)
	}
	return nil
}

// OccurrenceError reports a violated occurrence constraint at marshal
// time — the one structural property rule 5 of §3 leaves dynamic.
type OccurrenceError struct {
	Context string // e.g. "ItemsType.item"
	Count   int
	Min     int
	Max     int // -1 for unbounded
}

// Error implements the error interface.
func (e *OccurrenceError) Error() string {
	max := "unbounded"
	if e.Max >= 0 {
		max = fmt.Sprintf("%d", e.Max)
	}
	return fmt.Sprintf("vdom: %s occurs %d times, schema requires %d..%s", e.Context, e.Count, e.Min, max)
}

// CheckOccurs verifies a repeated member's count against its bounds.
func CheckOccurs(context string, count, min, max int) error {
	if count < min || (max >= 0 && count > max) {
		return &OccurrenceError{Context: context, Count: count, Min: min, Max: max}
	}
	return nil
}

// RequiredError reports a missing required member or attribute.
type RequiredError struct {
	Context string
	What    string
}

// Error implements the error interface.
func (e *RequiredError) Error() string {
	return fmt.Sprintf("vdom: %s: required %s is not set", e.Context, e.What)
}

// Required returns an error for an unset required member.
func Required(context, what string) error {
	return &RequiredError{Context: context, What: what}
}

// Marshal writes a typed tree and parses the bytes into a new DOM
// document: the DOM view (paper Fig. 4) is exactly what a reader of the
// bytes sees. The document is valid against the runtime's schema by
// construction (the E1/E2 tests verify this with the runtime validator).
func Marshal(root ElementNode) (*dom.Document, error) {
	b, err := AppendXML(nil, root)
	if err != nil {
		return nil, err
	}
	return dom.Parse(b)
}

// MarshalString serializes a typed tree to XML text.
func MarshalString(root ElementNode) (string, error) {
	b, err := AppendXML(nil, root)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// MarshalIndent serializes a typed tree pretty-printed.
func MarshalIndent(root ElementNode) (string, error) {
	doc, err := Marshal(root)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := dom.Serialize(&sb, doc, &dom.SerializeOptions{OmitXMLDecl: true, Indent: "  "}); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// Verify writes the tree and re-validates the bytes with the streaming
// validator — used by tests to demonstrate the paper's central claim
// (every V-DOM tree is schema-valid) and by callers who want belt and
// braces.
func (rt *Runtime) Verify(root ElementNode) error {
	b, err := AppendXML(nil, root)
	if err != nil {
		return err
	}
	rt.streamOnce.Do(func() { rt.stream = validator.New(rt.Schema, nil).Stream() })
	return rt.stream.ValidateBytes(b).Err()
}

// Dumper is implemented by generated nodes to render the paper's Fig. 7
// view: the typed object hierarchy with one generated interface per node,
// in contrast to Fig. 4's uniform "Element".
type Dumper interface {
	Node
	// DumpInto writes one line per node at the given depth.
	DumpInto(sb *strings.Builder, depth int)
}

// Dump renders a typed tree in the Fig. 7 style.
func Dump(n Node) string {
	var sb strings.Builder
	if d, ok := n.(Dumper); ok {
		d.DumpInto(&sb, 0)
	} else {
		sb.WriteString(n.VDOMName() + "\n")
	}
	return sb.String()
}

// Indent writes dump indentation.
func Indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}
