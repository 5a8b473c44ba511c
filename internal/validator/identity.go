package validator

// Identity constraints (xs:unique / xs:key / xs:keyref) — the feature the
// paper's §3 explicitly defers ("Currently we do not handle identity
// constraints"), implemented here as a clearly-marked extension. The
// selectors and fields are the restricted XPath subset the XML Schema
// recommendation defines, parsed once with the schema (xsd.XPath); this
// file evaluates them over an element's subtree.

import (
	"fmt"
	"strings"

	"repro/internal/dom"
	"repro/internal/xsd"
)

// selectNodes evaluates selector paths from a context element.
func selectNodes(ctx *dom.Element, paths []xsd.XPath) []*dom.Element {
	var out []*dom.Element
	seen := map[*dom.Element]bool{}
	add := func(e *dom.Element) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	for _, p := range paths {
		if p.Dot || len(p.Steps) == 0 {
			add(ctx)
			continue
		}
		var frontier []*dom.Element
		if p.Descendant {
			frontier = descendantsAndSelf(ctx)
		} else {
			frontier = []*dom.Element{ctx}
		}
		for _, step := range p.Steps {
			var next []*dom.Element
			for _, e := range frontier {
				for _, c := range e.ChildElements() {
					if step == "*" || c.LocalName() == step {
						next = append(next, c)
					}
				}
			}
			frontier = next
		}
		for _, e := range frontier {
			add(e)
		}
	}
	return out
}

// descendantsAndSelf lists e and its descendant elements in document order.
// The walk keeps its own stack of pending elements, so a deep chain costs
// time linear in its length.
func descendantsAndSelf(e *dom.Element) []*dom.Element {
	var out []*dom.Element
	stack := []*dom.Element{e}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, n)
		kids := n.ChildNodes()
		for i := len(kids) - 1; i >= 0; i-- {
			if c, ok := kids[i].(*dom.Element); ok {
				stack = append(stack, c)
			}
		}
	}
	return out
}

// fieldValue evaluates one field path on a selected node. ok is false when
// the field is absent.
func fieldValue(node *dom.Element, paths []xsd.XPath) (string, bool) {
	for _, p := range paths {
		targets := []*dom.Element{node}
		if len(p.Steps) > 0 {
			targets = selectNodes(node, []xsd.XPath{{Descendant: p.Descendant, Steps: p.Steps}})
		}
		for _, tgt := range targets {
			if p.Attr != "" {
				if tgt.HasAttribute(p.Attr) {
					return tgt.GetAttribute(p.Attr), true
				}
				continue
			}
			// Element value: its text content (only if it has no
			// element children, per the field restriction).
			hasElemChild := len(tgt.ChildElements()) > 0
			if !hasElemChild {
				return strings.TrimSpace(tgt.TextContent()), true
			}
		}
	}
	return "", false
}

// checkIdentityConstraints appends the violations of the frame's identity
// constraints, evaluated over its element's subtree, to viols.
func checkIdentityConstraints(f *frame, viols []violation) []violation {
	identityViolations(f.node, f.decl, func(msg string) { viols = append(viols, f.violation(msg)) })
	return viols
}

// identityViolations reports each violation of decl's identity constraints
// over el's subtree, in order.
func identityViolations(el *dom.Element, decl *xsd.ElementDecl, violate func(msg string)) {
	// Key tables built in this scope, by constraint name.
	type table map[string]bool
	keyTables := map[xsd.QName]table{}
	var keyrefs []*xsd.IdentityConstraint

	for _, ic := range decl.Constraints {
		if ic.Kind == xsd.ConstraintKeyref {
			keyrefs = append(keyrefs, ic)
			// Evaluated after the referenced key's table exists.
			continue
		}
		tbl := table{}
		for _, node := range selectNodes(el, ic.Selector) {
			parts, ok := keyParts(node, ic.Fields)
			if !ok {
				if ic.Kind == xsd.ConstraintKey {
					violate(fmt.Sprintf("key %s: a selected node is missing a field", ic.Name.Local))
				}
				continue // unique tolerates absent fields
			}
			keyStr := strings.Join(parts, "\x1f")
			if tbl[keyStr] {
				violate(fmt.Sprintf("%s %s: duplicate value {%s}", ic.Kind, ic.Name.Local, strings.Join(parts, ", ")))
				continue
			}
			tbl[keyStr] = true
		}
		keyTables[ic.Name] = tbl
	}

	for _, ic := range keyrefs {
		refTbl, ok := keyTables[ic.Refer]
		if !ok {
			violate(fmt.Sprintf("keyref %s refers to unknown key %s in this scope", ic.Name.Local, ic.Refer.Local))
			continue
		}
		for _, node := range selectNodes(el, ic.Selector) {
			parts, ok := keyParts(node, ic.Fields)
			if ok && !refTbl[strings.Join(parts, "\x1f")] {
				violate(fmt.Sprintf("keyref %s: value {%s} does not match any %s key", ic.Name.Local, strings.Join(parts, ", "), ic.Refer.Local))
			}
		}
	}
}

// keyParts evaluates each field on a selected node; ok is false when a
// field is absent.
func keyParts(node *dom.Element, fields [][]xsd.XPath) (parts []string, ok bool) {
	for _, fp := range fields {
		v, ok := fieldValue(node, fp)
		if !ok {
			return nil, false
		}
		parts = append(parts, v)
	}
	return parts, true
}
