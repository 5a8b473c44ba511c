package dtd

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/xmlparser"
)

// lower renders the DTD as a no-namespace XML Schema: each element type
// becomes a global element with an anonymous complex type.
func (d *DTD) lower() string {
	l := &lowering{d: d, undeclared: map[string]bool{}}
	l.b.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">`)
	names := sortedKeys(d.Elements)
	for _, n := range names {
		l.element(d.Elements[n], names)
	}
	// A content model may name an element type the DTD never declares:
	// such an element is invalid wherever it appears, which an abstract
	// declaration (one no instance may use) expresses.
	for _, n := range sortedKeys(l.undeclared) {
		fmt.Fprintf(&l.b, `<xs:element name="%s" abstract="true"/>`, n)
	}
	l.b.WriteString(`</xs:schema>`)
	return l.b.String()
}

type lowering struct {
	d          *DTD
	b          strings.Builder
	undeclared map[string]bool
}

func (l *lowering) element(el *ElementDecl, declared []string) {
	fmt.Fprintf(&l.b, `<xs:element name="%s"><xs:complexType`, el.Name)
	switch el.Kind {
	case ContentEmpty:
		l.b.WriteString(`>`)
	case ContentAny:
		// Every declared element, not xs:any: wildcards validate laxly,
		// and an undeclared child of ANY content is invalid.
		l.mixed(declared)
	case ContentMixed:
		l.mixed(el.MixedNames)
	case ContentChildren:
		l.b.WriteString(`>`)
		l.particle(el.Model)
	}
	l.attributes(l.d.Attlists[el.Name])
	l.b.WriteString(`</xs:complexType></xs:element>`)
}

// mixed writes mixed content admitting the named elements in any order.
func (l *lowering) mixed(names []string) {
	l.b.WriteString(` mixed="true">`)
	if len(names) == 0 {
		return
	}
	l.b.WriteString(`<xs:choice minOccurs="0" maxOccurs="unbounded">`)
	for _, n := range names {
		l.ref(n, "")
	}
	l.b.WriteString(`</xs:choice>`)
}

func (l *lowering) ref(name, occurs string) {
	if _, ok := l.d.Elements[name]; !ok {
		l.undeclared[name] = true
	}
	fmt.Fprintf(&l.b, `<xs:element ref="%s"%s/>`, name, occurs)
}

func (l *lowering) particle(p *contentmodel.Particle) {
	occurs := ""
	if p.Min == 0 {
		occurs = ` minOccurs="0"`
	}
	if p.Max == contentmodel.Unbounded {
		occurs += ` maxOccurs="unbounded"`
	}
	if p.Leaf != nil {
		l.ref(p.Leaf.Names[0].Local, occurs)
		return
	}
	group := "sequence"
	if p.Group.Kind == contentmodel.Choice {
		group = "choice"
	}
	fmt.Fprintf(&l.b, `<xs:%s%s>`, group, occurs)
	for _, c := range p.Group.Children {
		l.particle(c)
	}
	fmt.Fprintf(&l.b, `</xs:%s>`, group)
}

// builtins maps the attribute types XML Schema has as built-ins.
var builtins = map[AttType]string{
	AttCDATA: "xs:string", AttID: "xs:ID", AttIDREF: "xs:IDREF", AttIDREFS: "xs:IDREFS",
	AttNMTOKEN: "xs:NMTOKEN", AttNMTOKENS: "xs:NMTOKENS",
}

// attributes writes the attribute uses of an element's definitions. The
// first definition of a name binds (XML 1.0 §3.3).
func (l *lowering) attributes(defs []*AttDef) {
	seen := map[string]bool{}
	for _, def := range defs {
		if seen[def.Name] {
			continue
		}
		seen[def.Name] = true
		fmt.Fprintf(&l.b, `<xs:attribute name="%s"`, def.Name)
		if t, ok := builtins[def.Type]; ok {
			fmt.Fprintf(&l.b, ` type="%s"`, t)
		}
		switch def.Default {
		case DefaultRequired:
			l.b.WriteString(` use="required"`)
		case DefaultFixed:
			fmt.Fprintf(&l.b, ` fixed="%s"`, escape(def.Value))
		case DefaultValue:
			fmt.Fprintf(&l.b, ` default="%s"`, escape(def.Value))
		}
		switch def.Type {
		case AttEnum:
			l.b.WriteString(`>` + enumeration("xs:NMTOKEN", def.Enum) + `</xs:attribute>`)
		case AttNotation:
			var declared []string
			for _, n := range def.Enum {
				if l.d.Notations[n] {
					declared = append(declared, n)
				}
			}
			l.b.WriteString(`>` + enumeration("xs:NMTOKEN", declared) + `</xs:attribute>`)
		case AttENTITY, AttENTITIES:
			t := enumeration("xs:ENTITY", sortedKeys(l.d.Entities))
			if def.Type == AttENTITIES {
				t = `<xs:simpleType><xs:list>` + t + `</xs:list></xs:simpleType>`
			}
			l.b.WriteString(`>` + t + `</xs:attribute>`)
		default:
			l.b.WriteString(`/>`)
		}
	}
}

// enumeration is an anonymous restriction of base to the given values;
// with none, its maxLength of 0 admits no value, since base has no empty
// value.
func enumeration(base string, values []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<xs:simpleType><xs:restriction base="%s">`, base)
	for _, v := range values {
		fmt.Fprintf(&b, `<xs:enumeration value="%s"/>`, v)
	}
	if len(values) == 0 {
		b.WriteString(`<xs:maxLength value="0"/>`)
	}
	b.WriteString(`</xs:restriction></xs:simpleType>`)
	return b.String()
}

func escape(s string) string {
	b, _ := xmlparser.AppendEscaped(nil, s, true)
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
