package validator

// The identity-constraint evaluator the validation machine replaced, kept
// unchanged as a test oracle: it evaluates selectors and fields by walking
// a DOM subtree. FuzzIdentityMatchesDOM holds the machine's token-stream
// evaluation to it.

import (
	"fmt"
	"strings"
	"testing"

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

// identityXSDs admit any structure below r and s, whose declarations hold
// the constraints: r is the root's scope and s a nested one. Only e (empty
// content) and k (a string) reject element children, so their subtrees,
// like those of undeclared names, go unvalidated. The constraints use
// union selectors and fields, .// starts, "*" steps, "." fields, several
// fields, and keyrefs to a key in scope and to one that is not.
var identityXSDs = []string{`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Any" mixed="true">
    <xsd:sequence><xsd:any processContents="lax" minOccurs="0" maxOccurs="unbounded"/></xsd:sequence>
    <xsd:anyAttribute processContents="skip"/>
  </xsd:complexType>
  <xsd:complexType name="Empty"><xsd:anyAttribute processContents="skip"/></xsd:complexType>
  <xsd:element name="e" type="Empty"/>
  <xsd:element name="k" type="xsd:string"/>
  <xsd:element name="r" type="Any">
    <xsd:unique name="u"><xsd:selector xpath="a|.//b"/><xsd:field xpath="@id"/></xsd:unique>
    <xsd:key name="pk"><xsd:selector xpath=".//a/b"/><xsd:field xpath="@id|c"/><xsd:field xpath="."/></xsd:key>
    <xsd:keyref name="ref" refer="pk"><xsd:selector xpath=".//x"/><xsd:field xpath="@ref"/><xsd:field xpath="*"/></xsd:keyref>
    <xsd:keyref name="lost" refer="sk"><xsd:selector xpath="y"/><xsd:field xpath="@id"/></xsd:keyref>
  </xsd:element>
  <xsd:element name="s" type="Any">
    <xsd:key name="sk"><xsd:selector xpath="*/a|."/><xsd:field xpath=".//@id"/></xsd:key>
    <xsd:unique name="su"><xsd:selector xpath=".//c"/><xsd:field xpath="."/></xsd:unique>
  </xsd:element>
</xsd:schema>`, `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Any" mixed="true">
    <xsd:sequence><xsd:any processContents="lax" minOccurs="0" maxOccurs="unbounded"/></xsd:sequence>
    <xsd:anyAttribute processContents="skip"/>
  </xsd:complexType>
  <xsd:complexType name="Empty"><xsd:anyAttribute processContents="skip"/></xsd:complexType>
  <xsd:element name="e" type="Empty"/>
  <xsd:element name="k" type="xsd:string"/>
  <xsd:element name="r" type="Any">
    <xsd:key name="pk"><xsd:selector xpath=".//*"/><xsd:field xpath="@id"/></xsd:key>
    <xsd:keyref name="ref" refer="pk"><xsd:selector xpath=".//a/b|x/*"/><xsd:field xpath="b|.//c/@ref"/></xsd:keyref>
    <xsd:unique name="u"><xsd:selector xpath="*/*"/><xsd:field xpath="."/><xsd:field xpath="c/@id"/></xsd:unique>
  </xsd:element>
  <xsd:element name="s" type="Any">
    <xsd:unique name="su"><xsd:selector xpath="."/><xsd:field xpath="a"/></xsd:unique>
    <xsd:keyref name="sref" refer="pk"><xsd:selector xpath="b"/><xsd:field xpath="@id"/></xsd:keyref>
  </xsd:element>
</xsd:schema>`}

// identityOracle reports the identity violations of doc under v's schema
// as the DOM evaluator finds them, for each scope the machine opens: r or
// s, validated, as every element is whose parent is a validated r or s and
// whose name is declared. A scope's violations follow those of the scopes
// inside it, as the machine reports each at its end tag.
func identityOracle(v *Validator, doc *dom.Document) []Violation {
	var out []Violation
	var walk func(el *dom.Element, path string)
	walk = func(el *dom.Element, path string) {
		decl, ok := v.schema.LookupElement(xsd.QName{Space: el.NamespaceURI(), Local: el.LocalName()})
		if !ok {
			return
		}
		if ct, ok := decl.Type.(*xsd.ComplexType); ok && ct.Kind == xsd.ContentMixed {
			seen := map[string]int{}
			for _, c := range el.ChildElements() {
				seen[c.TagName()]++
				walk(c, path+"/"+appendStepString(c.TagName(), seen[c.TagName()]))
			}
		}
		identityViolations(el, decl, func(msg string) { out = append(out, Violation{Path: path, Msg: msg}) })
	}
	root := doc.DocumentElement()
	walk(root, "/"+root.TagName())
	return out
}

func appendStepString(tag string, n int) string { return string(appendStep(nil, tag, n)) }

// identityOnly keeps the identity violations of a verdict.
func identityOnly(res *Result) []Violation {
	var out []Violation
	for _, viol := range res.Violations {
		for _, kind := range []string{"key ", "keyref ", "unique "} {
			if strings.HasPrefix(viol.Msg, kind) {
				out = append(out, viol)
				break
			}
		}
	}
	return out
}

// usesXSI reports whether any element of the tree carries an xsi:
// attribute, which could make the machine skip a scope the oracle counts.
func usesXSI(el *dom.Element) bool {
	for _, a := range el.Attributes() {
		if a.Name().Space == xsd.XSINamespace {
			return true
		}
	}
	for _, c := range el.ChildElements() {
		if usesXSI(c) {
			return true
		}
	}
	return false
}

// FuzzIdentityMatchesDOM demands the same identity violations, in the
// same order, from the DOM evaluator the machine replaced and from the
// machine, fed by the decoder and by a tree replay.
func FuzzIdentityMatchesDOM(f *testing.F) {
	var vs []*Validator
	for _, src := range identityXSDs {
		s, err := xsd.ParseString(src, nil)
		if err != nil {
			f.Fatal(err)
		}
		vs = append(vs, New(s, nil))
	}
	for _, doc := range []string{
		// Union selectors: a node two alternatives select counts once.
		`<r><b id="1"/><a id="1"><b id="2"/></a><a id="2"/><b id="2"/></r>`,
		// Nested .//a/b starts: the outer a's b comes after the inner's.
		`<r><a><a><b id="1">v</b></a><b id="1">v</b></a></r>`,
		`<r><a><x><a><b><c>1</c></b></a></x><b id="1"/></a></r>`,
		// Two duplicated values, each twice, and a third time.
		`<r><a id="p"/><a id="q"/><a id="p"/><a id="q"/><a id="p"/></r>`,
		// A missing field under xs:key and under xs:unique.
		`<r><a><b/></a><a/><s><z><a/></z></s></r>`,
		// Keyrefs: to a key in scope, missing, and to an unknown key.
		`<r><a><b id="k">t</b></a><x ref="k"><b>t</b></x><x ref="k"><b>u</b></x><y id="1"/></r>`,
		// Fields inside subtrees the content model rejected or skipped.
		`<r><e><a id="1"/></e><a id="1"/><k><a id="2"/>t</k><q><a id="1"><b id="3"/></a></q><a><b id="3"><c>1</c></b></a></r>`,
		// Field text split by CDATA, comments and entity references.
		`<!DOCTYPE r [<!ENTITY v "A">]><r><s><c>&v;<![CDATA[B]]><!-- - -->1</c><c> A&#66;1 </c><c>&v;B<?pi?>1<d/></c></s></r>`,
		// Nested scopes selecting inside each other, at several depths.
		`<r><s id="1"><a id="1"/><z><a id="2"/><s><a id="2"/><a id="2"/></s></z></s><s id="1"><c>x</c><c>x</c></s></r>`,
		`<s><s><a>1</a><b id="1"/></s><a>1</a><a>2</a><s><a>2</a></s></s>`,
	} {
		for i := range vs {
			f.Add(uint8(i), doc)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, src string) {
		v := vs[int(which)%len(vs)]
		doc, err := dom.ParseString(src)
		if err != nil || doc.DocumentElement() == nil || usesXSI(doc.DocumentElement()) {
			return
		}
		want := identityOracle(v, doc)
		for _, got := range []struct {
			name string
			res  *Result
		}{{"decoder", v.Stream().ValidateBytes([]byte(src))}, {"tree", v.ValidateDocument(doc)}} {
			if len(got.res.Violations) >= maxViolations {
				return // the cap may have cut a region
			}
			if g := identityOnly(got.res); fmt.Sprint(g) != fmt.Sprint(want) {
				t.Fatalf("%s: machine from the %s:\n  %v\noracle:\n  %v", src, got.name, g, want)
			}
		}
	})
}
