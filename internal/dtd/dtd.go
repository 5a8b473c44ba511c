package dtd

import (
	"fmt"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// ContentKind classifies an element type's declared content.
type ContentKind int

// Content kinds.
const (
	// ContentEmpty is EMPTY.
	ContentEmpty ContentKind = iota
	// ContentAny is ANY.
	ContentAny
	// ContentMixed is (#PCDATA | a | b)*.
	ContentMixed
	// ContentChildren is a children content model expression.
	ContentChildren
)

// ElementDecl is an <!ELEMENT> declaration.
type ElementDecl struct {
	Name string
	Kind ContentKind
	// MixedNames are the element names admitted in mixed content.
	MixedNames []string
	// Model is the children content model (Kind == ContentChildren).
	Model *contentmodel.Particle
}

// AttType is a DTD attribute type.
type AttType int

// Attribute types.
const (
	AttCDATA AttType = iota
	AttID
	AttIDREF
	AttIDREFS
	AttENTITY
	AttENTITIES
	AttNMTOKEN
	AttNMTOKENS
	AttEnum
	AttNotation
)

// DefaultKind is an attribute default constraint.
type DefaultKind int

// Default kinds.
const (
	DefaultImplied DefaultKind = iota
	DefaultRequired
	DefaultFixed
	DefaultValue
)

// AttDef is one attribute definition of an <!ATTLIST>.
type AttDef struct {
	Name    string
	Type    AttType
	Enum    []string
	Default DefaultKind
	Value   string // default or fixed value
}

// DTD is a parsed document type definition.
type DTD struct {
	// RootName is the doctype name (the required root element type).
	RootName string
	Elements map[string]*ElementDecl
	// Attlists maps element name -> attribute definitions.
	Attlists map[string][]*AttDef
	// Entities are the declared internal general entities.
	Entities map[string]string
	// Notations records declared notation names.
	Notations map[string]bool

	// schema is the DTD lowered to XML Schema, which Validate runs.
	schema *xsd.Schema
}

// Parse parses the raw internal-subset text of a DOCTYPE declaration and
// lowers it to the XML Schema its documents are validated against.
func Parse(rootName, subset string) (*DTD, error) {
	decls, err := xmlparser.ParseSubset(subset)
	if err != nil {
		return nil, fmt.Errorf("dtd: %w", err)
	}
	d := &DTD{
		RootName:  rootName,
		Elements:  map[string]*ElementDecl{},
		Attlists:  map[string][]*AttDef{},
		Entities:  map[string]string{},
		Notations: map[string]bool{},
	}
	for _, decl := range decls {
		p := &parser{src: decl.Body, decl: "<!" + decl.Kind + " " + decl.Name + ">"}
		switch decl.Kind {
		case "ELEMENT":
			if _, dup := d.Elements[decl.Name]; dup {
				return nil, p.errf("element %q declared twice", decl.Name)
			}
			el, err := p.elementDecl(decl.Name)
			if err != nil {
				return nil, err
			}
			d.Elements[decl.Name] = el
		case "ATTLIST":
			defs, err := p.attlistDecl()
			if err != nil {
				return nil, err
			}
			d.Attlists[decl.Name] = append(d.Attlists[decl.Name], defs...)
		case "ENTITY":
			if _, dup := d.Entities[decl.Name]; !dup && !decl.Parameter && !decl.External {
				d.Entities[decl.Name] = decl.Value
			}
		case "NOTATION":
			d.Notations[decl.Name] = true
		}
	}
	if d.schema, err = xsd.ParseString(d.lower(), nil); err != nil {
		return nil, fmt.Errorf("dtd: %w", err)
	}
	return d, nil
}

// parser reads the body of one declaration: a content spec or the
// attribute definitions of an ATTLIST.
type parser struct {
	src, decl string
	pos       int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("dtd: %s: %s (at offset %d)", p.decl, fmt.Sprintf(format, args...), p.pos)
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		p.pos++
	}
}

func (p *parser) consume(tok string) bool {
	if strings.HasPrefix(p.src[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

// name reads a Name token (a Name or, for an enumeration, an Nmtoken).
func (p *parser) name() (string, error) {
	p.skipSpace()
	rest := p.src[p.pos:]
	n := strings.IndexFunc(rest, func(r rune) bool { return !xmlparser.IsNameChar(r) })
	if n < 0 {
		n = len(rest)
	}
	if n == 0 {
		return "", p.errf("expected a name")
	}
	p.pos += n
	return rest[:n], nil
}

// elementDecl parses the content spec of <!ELEMENT name contentspec>.
func (p *parser) elementDecl(name string) (*ElementDecl, error) {
	decl := &ElementDecl{Name: name}
	p.skipSpace()
	switch {
	case p.consume("EMPTY"):
		decl.Kind = ContentEmpty
	case p.consume("ANY"):
		decl.Kind = ContentAny
	case strings.HasPrefix(p.src[p.pos:], "(") && p.peekMixed():
		if err := p.mixed(decl); err != nil {
			return nil, err
		}
	case strings.HasPrefix(p.src[p.pos:], "("):
		model, err := p.cp()
		if err != nil {
			return nil, err
		}
		decl.Kind = ContentChildren
		decl.Model = model
	default:
		return nil, p.errf("bad content spec for element %q", name)
	}
	if p.skipSpace(); p.pos < len(p.src) {
		return nil, p.errf("unexpected text after the content spec of element %q", name)
	}
	return decl, nil
}

// peekMixed looks ahead for "(#PCDATA".
func (p *parser) peekMixed() bool {
	rest := p.src[p.pos:]
	rest = strings.TrimPrefix(rest, "(")
	rest = strings.TrimLeft(rest, " \t\r\n")
	return strings.HasPrefix(rest, "#PCDATA")
}

// mixed parses (#PCDATA) or (#PCDATA | a | b)*.
func (p *parser) mixed(decl *ElementDecl) error {
	p.consume("(")
	p.skipSpace()
	p.consume("#PCDATA")
	decl.Kind = ContentMixed
	for {
		p.skipSpace()
		if p.consume(")") {
			p.consume("*") // optional for bare (#PCDATA)
			return nil
		}
		if !p.consume("|") {
			return p.errf("expected '|' or ')' in mixed content")
		}
		n, err := p.name()
		if err != nil {
			return err
		}
		decl.MixedNames = append(decl.MixedNames, n)
	}
}

// cp parses a content particle: name or (choice|seq) with occurrence.
func (p *parser) cp() (*contentmodel.Particle, error) {
	p.skipSpace()
	var particle *contentmodel.Particle
	if p.consume("(") {
		var children []*contentmodel.Particle
		first, err := p.cp()
		if err != nil {
			return nil, err
		}
		children = append(children, first)
		p.skipSpace()
		sep := byte(0)
		for {
			p.skipSpace()
			if p.consume(")") {
				break
			}
			var this byte
			switch {
			case p.consume("|"):
				this = '|'
			case p.consume(","):
				this = ','
			default:
				return nil, p.errf("expected '|', ',' or ')'")
			}
			if sep == 0 {
				sep = this
			} else if sep != this {
				return nil, p.errf("cannot mix ',' and '|' in one group")
			}
			c, err := p.cp()
			if err != nil {
				return nil, err
			}
			children = append(children, c)
		}
		kind := contentmodel.Sequence
		if sep == '|' {
			kind = contentmodel.Choice
		}
		particle = &contentmodel.Particle{Min: 1, Max: 1, Group: &contentmodel.Group{Kind: kind, Children: children}}
	} else {
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		particle = contentmodel.NewElementLeaf(1, 1, contentmodel.Symbol{Local: n}, n)
	}
	switch {
	case p.consume("?"):
		particle.Min, particle.Max = 0, 1
	case p.consume("*"):
		particle.Min, particle.Max = 0, contentmodel.Unbounded
	case p.consume("+"):
		particle.Min, particle.Max = 1, contentmodel.Unbounded
	}
	return particle, nil
}

// attlistDecl parses the attribute definitions of <!ATTLIST name (attdef)*>.
func (p *parser) attlistDecl() ([]*AttDef, error) {
	var defs []*AttDef
	for {
		if p.skipSpace(); p.pos == len(p.src) {
			return defs, nil
		}
		attName, err := p.name()
		if err != nil {
			return nil, err
		}
		def := &AttDef{Name: attName}
		p.skipSpace()
		switch {
		case p.consume("CDATA"):
			def.Type = AttCDATA
		case p.consume("IDREFS"):
			def.Type = AttIDREFS
		case p.consume("IDREF"):
			def.Type = AttIDREF
		case p.consume("ID"):
			def.Type = AttID
		case p.consume("ENTITIES"):
			def.Type = AttENTITIES
		case p.consume("ENTITY"):
			def.Type = AttENTITY
		case p.consume("NMTOKENS"):
			def.Type = AttNMTOKENS
		case p.consume("NMTOKEN"):
			def.Type = AttNMTOKEN
		case p.consume("NOTATION"):
			def.Type = AttNotation
			p.skipSpace()
			if !p.consume("(") {
				return nil, p.errf("NOTATION type requires a name list")
			}
			if def.Enum, err = p.nameList(); err != nil {
				return nil, err
			}
		case p.consume("("):
			def.Type = AttEnum
			if def.Enum, err = p.nameList(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("bad attribute type for %q", attName)
		}
		p.skipSpace()
		switch {
		case p.consume("#REQUIRED"):
			def.Default = DefaultRequired
		case p.consume("#IMPLIED"):
			def.Default = DefaultImplied
		default:
			def.Default = DefaultValue
			if p.consume("#FIXED") {
				def.Default = DefaultFixed
				p.skipSpace()
			}
			// ParseSubset has closed every literal of the body.
			if p.pos == len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
				return nil, p.errf("expected a quoted default for %q", attName)
			}
			end := p.pos + 1 + strings.IndexByte(p.src[p.pos+1:], p.src[p.pos])
			def.Value = p.src[p.pos+1 : end]
			p.pos = end + 1
		}
		defs = append(defs, def)
	}
}

// nameList parses "a | b | c )" (the '(' is already consumed).
func (p *parser) nameList() ([]string, error) {
	var out []string
	for {
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		out = append(out, n)
		p.skipSpace()
		if p.consume(")") {
			return out, nil
		}
		if !p.consume("|") {
			return nil, p.errf("expected '|' or ')' in name list")
		}
	}
}
