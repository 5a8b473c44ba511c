package validator

// Identity constraints (xs:unique / xs:key / xs:keyref) — the feature the
// paper's §3 explicitly defers ("Currently we do not handle identity
// constraints"), implemented here as a clearly-marked extension over the
// restricted XPath subset the XML Schema recommendation defines for
// selectors and fields:
//
//	selector ::= path ( '|' path )*
//	path     ::= ('.//')? step ( '/' step )*
//	step     ::= '.' | NCName | prefix:NCName | '*'
//	field    ::= like selector, with an optional trailing '@attr'
//
// Prefixes are matched by local name only (a documented simplification:
// the repository's schemas put elements in at most one namespace).

import (
	"fmt"
	"strings"

	"repro/internal/dom"
	"repro/internal/xsd"
)

// xpathStep is one parsed step.
type xpathStep struct {
	// local is the name test ("*" matches any element); "." steps are
	// dropped at parse time.
	local string
}

// xpathPath is one alternative of a selector/field.
type xpathPath struct {
	descendant bool // leading ".//"
	steps      []xpathStep
	// attr is the trailing @attribute of a field path ("" otherwise).
	attr string
	// dot marks the "." field path (the element's own value).
	dot bool
}

// parseRestrictedXPath parses the subset; field selects field grammar.
func parseRestrictedXPath(expr string, field bool) ([]xpathPath, error) {
	var out []xpathPath
	for _, alt := range strings.Split(expr, "|") {
		alt = strings.TrimSpace(alt)
		if alt == "" {
			return nil, fmt.Errorf("empty path in %q", expr)
		}
		var p xpathPath
		if alt == "." {
			p.dot = true
			out = append(out, p)
			continue
		}
		rest := alt
		if strings.HasPrefix(rest, ".//") {
			p.descendant = true
			rest = rest[3:]
		}
		segs := strings.Split(rest, "/")
		for i, seg := range segs {
			seg = strings.TrimSpace(seg)
			seg = strings.TrimPrefix(seg, "child::")
			switch {
			case seg == ".":
				continue
			case strings.HasPrefix(seg, "@"):
				if !field || i != len(segs)-1 {
					return nil, fmt.Errorf("attribute step only allowed at the end of a field: %q", expr)
				}
				name := strings.TrimPrefix(seg, "@")
				if j := strings.IndexByte(name, ':'); j >= 0 {
					name = name[j+1:]
				}
				p.attr = name
			case seg == "":
				return nil, fmt.Errorf("empty step in %q", expr)
			default:
				name := seg
				if j := strings.IndexByte(name, ':'); j >= 0 {
					name = name[j+1:]
				}
				p.steps = append(p.steps, xpathStep{local: name})
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// selectNodes evaluates selector paths from a context element.
func selectNodes(ctx *dom.Element, paths []xpathPath) []*dom.Element {
	var out []*dom.Element
	seen := map[*dom.Element]bool{}
	add := func(e *dom.Element) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	for _, p := range paths {
		if p.dot || len(p.steps) == 0 {
			add(ctx)
			continue
		}
		var frontier []*dom.Element
		if p.descendant {
			frontier = descendantsAndSelf(ctx)
		} else {
			frontier = []*dom.Element{ctx}
		}
		for _, step := range p.steps {
			var next []*dom.Element
			for _, e := range frontier {
				for _, c := range e.ChildElements() {
					if step.local == "*" || c.LocalName() == step.local {
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
func fieldValue(node *dom.Element, paths []xpathPath) (string, bool) {
	for _, p := range paths {
		targets := []*dom.Element{node}
		if len(p.steps) > 0 {
			targets = selectNodes(node, []xpathPath{{descendant: p.descendant, steps: p.steps}})
		}
		for _, tgt := range targets {
			if p.attr != "" {
				if tgt.HasAttribute(p.attr) {
					return tgt.GetAttribute(p.attr), true
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
		selPaths, err := parseRestrictedXPath(ic.Selector, false)
		if err != nil {
			violate(fmt.Sprintf("identity constraint %s: bad selector: %v", ic.Name.Local, err))
			continue
		}
		var fieldPaths [][]xpathPath
		bad := false
		for _, f := range ic.Fields {
			fp, err := parseRestrictedXPath(f, true)
			if err != nil {
				violate(fmt.Sprintf("identity constraint %s: bad field: %v", ic.Name.Local, err))
				bad = true
				break
			}
			fieldPaths = append(fieldPaths, fp)
		}
		if bad {
			continue
		}
		if ic.Kind == xsd.ConstraintKeyref {
			keyrefs = append(keyrefs, ic)
			// Evaluated after the referenced key's table exists.
			continue
		}
		tbl := table{}
		for _, node := range selectNodes(el, selPaths) {
			var parts []string
			missing := false
			for _, fp := range fieldPaths {
				v, ok := fieldValue(node, fp)
				if !ok {
					missing = true
					break
				}
				parts = append(parts, v)
			}
			if missing {
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
		selPaths, _ := parseRestrictedXPath(ic.Selector, false)
		var fieldPaths [][]xpathPath
		for _, f := range ic.Fields {
			fp, _ := parseRestrictedXPath(f, true)
			fieldPaths = append(fieldPaths, fp)
		}
		for _, node := range selectNodes(el, selPaths) {
			var parts []string
			missing := false
			for _, fp := range fieldPaths {
				v, ok := fieldValue(node, fp)
				if !ok {
					missing = true
					break
				}
				parts = append(parts, v)
			}
			if missing {
				continue
			}
			if !refTbl[strings.Join(parts, "\x1f")] {
				violate(fmt.Sprintf("keyref %s: value {%s} does not match any %s key", ic.Name.Local, strings.Join(parts, ", "), ic.Refer.Local))
			}
		}
	}
}
