package xsd

// Identity-constraint paths: the restricted XPath subset the XML Schema
// recommendation defines for selectors and fields, parsed once with the
// schema so validation only evaluates them:
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
)

// XPath is one alternative of a selector or field.
type XPath struct {
	// Descendant marks a leading ".//".
	Descendant bool
	// Steps are the child-step name tests by local name ("*" matches any
	// element); "." steps are dropped.
	Steps []string
	// Attr is the trailing @attribute of a field path ("" otherwise).
	Attr string
	// Dot marks the "." path: the context element itself.
	Dot bool
}

// parseXPath parses a selector, or with field set a field, into its
// alternatives.
func parseXPath(expr string, field bool) ([]XPath, error) {
	var out []XPath
	for _, alt := range strings.Split(expr, "|") {
		alt = strings.TrimSpace(alt)
		if alt == "" {
			return nil, fmt.Errorf("empty path in %q", expr)
		}
		var p XPath
		if alt == "." {
			p.Dot = true
			out = append(out, p)
			continue
		}
		rest := alt
		if strings.HasPrefix(rest, ".//") {
			p.Descendant = true
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
				p.Attr = localPart(seg[1:])
			case seg == "":
				return nil, fmt.Errorf("empty step in %q", expr)
			default:
				p.Steps = append(p.Steps, localPart(seg))
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// localPart strips a name's prefix.
func localPart(name string) string {
	if j := strings.IndexByte(name, ':'); j >= 0 {
		return name[j+1:]
	}
	return name
}
