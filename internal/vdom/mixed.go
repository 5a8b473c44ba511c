package vdom

import (
	"fmt"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/xsdtypes"
)

// CheckBuiltin validates a lexical value against a built-in simple type by
// its XSD local name (used by generated code for elements typed directly
// with built-ins like xsd:decimal).
func CheckBuiltin(local, lexical string) error {
	b, ok := xsdtypes.Lookup(local)
	if !ok {
		return fmt.Errorf("vdom: unknown built-in type %q", local)
	}
	return b.Validate(lexical)
}

// CheckSimpleContent validates the character content of a named complex
// type with simple content.
func (rt *Runtime) CheckSimpleContent(typeName, lexical string) error {
	ct := rt.ComplexType(typeName)
	if ct.SimpleContentType == nil {
		return fmt.Errorf("vdom: type %s has no simple content", typeName)
	}
	return ct.SimpleContentType.Validate(lexical)
}

// NamedElement is an element node that knows its XML name — implemented by
// every generated element wrapper and used for mixed-content ordering
// checks.
type NamedElement interface {
	ElementNode
	// XMLQName returns the element's namespace and local name.
	XMLQName() (space, local string)
}

// mixedItem is one ordered child of a mixed-content value: text or a
// typed element.
type mixedItem struct {
	text string
	node NamedElement
}

// MixedContent is the ordered child list of a mixed-content complex type.
// Generated mixed types embed it; their typed Add methods restrict which
// element types can enter, and the content-model check at build time
// enforces order and occurrence (the two properties a flat list cannot
// carry statically).
type MixedContent struct {
	items []mixedItem
}

// AddNode appends a typed child element.
func (m *MixedContent) AddNode(n NamedElement) { m.items = append(m.items, mixedItem{node: n}) }

// AddText appends character data.
func (m *MixedContent) AddText(s string) { m.items = append(m.items, mixedItem{text: s}) }

// Len returns the number of items (text runs and elements).
func (m *MixedContent) Len() int { return len(m.items) }

// WriteMixed writes the mixed children, first checking the element
// sequence against the named type's content model.
func (rt *Runtime) WriteMixed(w *Writer, m *MixedContent, typeName string) error {
	ct := rt.ComplexType(typeName)
	var symbols []contentmodel.Symbol
	for _, it := range m.items {
		if it.node != nil {
			space, local := it.node.XMLQName()
			symbols = append(symbols, contentmodel.Symbol{Space: space, Local: local})
		}
	}
	if _, merr := ct.Matcher(rt.Schema).Match(symbols); merr != nil {
		return fmt.Errorf("vdom: %s content: %s", typeName, merr.Error())
	}
	for _, it := range m.items {
		if it.node == nil {
			w.Text(it.text)
		} else if err := it.node.WriteXML(w); err != nil {
			return err
		}
	}
	return nil
}

// DumpMixed renders mixed children for the Fig. 7 style dump.
func DumpMixed(m *MixedContent, sb *strings.Builder, depth int) {
	for _, it := range m.items {
		if it.node != nil {
			if d, ok := it.node.(Dumper); ok {
				d.DumpInto(sb, depth)
			} else {
				Indent(sb, depth)
				sb.WriteString(it.node.VDOMName() + "\n")
			}
			continue
		}
		Indent(sb, depth)
		fmt.Fprintf(sb, "Text %q\n", it.text)
	}
}
