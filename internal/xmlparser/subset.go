package xmlparser

import (
	"fmt"
	"strings"
)

// Decl is one markup declaration of an internal DTD subset.
type Decl struct {
	// Kind is the declaration's keyword: "ELEMENT", "ATTLIST", "ENTITY"
	// or "NOTATION".
	Kind string
	// Name is the declared element type (ELEMENT, ATTLIST), entity or
	// notation.
	Name string
	// Body is the text after the name up to the closing '>', quoted
	// literals intact.
	Body string
	// Value is an internal entity's literal, without its quotes.
	Value string
	// Parameter marks a parameter entity (<!ENTITY % name ...>) and
	// External one declared with a SYSTEM or PUBLIC identifier.
	Parameter, External bool
}

// ParseSubset scans the text of an internal DTD subset (between the
// DOCTYPE's '[' and ']') into its markup declarations, in order.
// Comments, processing instructions and parameter-entity references
// declare nothing and are skipped; a quoted literal is text, so markup or
// a '>' inside one declares and closes nothing. Anything else the XML 1.0
// intSubset production does not admit is an error, as are a malformed
// comment or PI and an illegal character.
func ParseSubset(subset string) ([]Decl, error) {
	if err := checkChars(subset); err != nil {
		return nil, fmt.Errorf("internal DTD subset: illegal character %v", err)
	}
	var decls []Decl
	for s := subset; ; {
		s = strings.TrimLeft(s, " \t\r\n")
		if s == "" {
			return decls, nil
		}
		at := len(subset) - len(s)
		var what string
		ok := false
		switch {
		case strings.HasPrefix(s, "<!--"):
			what = "comment"
			var body string
			body, s, ok = strings.Cut(s[len("<!--"):], "-->")
			ok = ok && !strings.Contains(body, "--") && !strings.HasSuffix(body, "-")
		case strings.HasPrefix(s, "<?"):
			what = "processing instruction"
			var pi string
			pi, s, ok = strings.Cut(s[len("<?"):], "?>")
			n := strings.IndexFunc(pi, IsSpace)
			if n < 0 {
				n = len(pi)
			}
			ok = ok && IsName(pi[:n]) && !strings.EqualFold(pi[:n], "xml")
		case s[0] == '%':
			what = "parameter-entity reference"
			var name string
			name, s, ok = strings.Cut(s[1:], ";")
			ok = ok && IsName(name)
		case strings.HasPrefix(s, "<!"):
			what = "markup declaration"
			var decl Decl
			if decl, s, ok = scanDecl(s[len("<!"):]); ok {
				decls = append(decls, decl)
			}
		default:
			what = "text"
		}
		if !ok {
			return nil, fmt.Errorf("internal DTD subset, offset %d: malformed %s", at, what)
		}
	}
}

// scanDecl scans one declaration, s being the text after its "<!", and
// returns the subset after its closing '>'.
func scanDecl(s string) (decl Decl, rest string, ok bool) {
	for _, kw := range [...]string{"ELEMENT", "ATTLIST", "ENTITY", "NOTATION"} {
		if strings.HasPrefix(s, kw) {
			decl.Kind = kw
			break
		}
	}
	if s, ok = cutSpace(s[len(decl.Kind):]); !ok || decl.Kind == "" {
		return decl, "", false
	}
	if decl.Kind == "ENTITY" && s[0] == '%' {
		decl.Parameter = true
		if s, ok = cutSpace(s[1:]); !ok {
			return decl, "", false
		}
	}
	n := strings.IndexFunc(s, func(r rune) bool { return !IsNameChar(r) })
	if n < 0 {
		n = len(s)
	}
	if decl.Name = s[:n]; !IsName(decl.Name) {
		return decl, "", false
	}
	s = s[n:]
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '>':
			decl.Body, rest = s[:i], s[i+1:]
			return decl, rest, decl.Kind != "ENTITY" || entityDef(&decl)
		case '"', '\'':
			k := strings.IndexByte(s[i+1:], s[i])
			if k < 0 {
				return decl, "", false
			}
			i += 1 + k
		}
	}
	return decl, "", false
}

// entityDef reads an entity declaration's body: a quoted literal, which
// becomes its Value, or an external identifier.
func entityDef(decl *Decl) bool {
	b, ok := cutSpace(decl.Body)
	if ok && (strings.HasPrefix(b, "SYSTEM") || strings.HasPrefix(b, "PUBLIC")) {
		decl.External = true
		return true
	}
	if !ok || (b[0] != '"' && b[0] != '\'') {
		return false
	}
	k := strings.IndexByte(b[1:], b[0])
	decl.Value = b[1 : 1+k]
	return strings.TrimLeft(b[2+k:], " \t\r\n") == ""
}

// cutSpace strips the whitespace s must start with and reports whether
// there was any and something follows it.
func cutSpace(s string) (string, bool) {
	t := strings.TrimLeft(s, " \t\r\n")
	return t, len(t) < len(s) && t != ""
}
