package bind

// The any-tree walk FromJSON used before its tape reader: encoding/json
// decodes the body into map[string]any, []any and json.Number, and the
// walk reads the Plan off that tree. It is kept as FuzzFromJSON's oracle,
// with one fix: a $mixed segment whose $element names no admissible
// element is an error, as in FromJSON, instead of silently ending the
// content.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// treeFromJSON is FromJSON through encoding/json's any tree.
func (b *Binder) treeFromJSON(data []byte) (*Value, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var node any
	if err := dec.Decode(&node); err != nil {
		return nil, fmt.Errorf("bind: bad JSON: %w", err)
	}
	obj, ok := node.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("bind: top-level JSON must be an object with $element")
	}
	name, _ := obj["$element"].(string)
	if name == "" {
		return nil, fmt.Errorf("bind: top-level JSON object is missing $element")
	}
	decl := b.globalByLocal(name)
	if decl == nil {
		return nil, fmt.Errorf("bind: no global element declaration named %q", name)
	}
	d := &treeDecoder{b: b}
	return d.valueFromJSON(decl, node, false)
}

// treeDecoder is one treeFromJSON call: its Values and Attr lists come from
// the document's slab. pending holds the children of the structs being
// built, innermost last, so each struct's list is allocated once, at its
// final length.
type treeDecoder struct {
	b       *Binder
	slab    slab
	pending []*Value
}

func (d *treeDecoder) valueFromJSON(decl *xsd.ElementDecl, node any, wild bool) (*Value, error) {
	v := d.slab.value()
	v.Name, v.Wild = decl.Name, wild
	typ := decl.Type
	obj, isObj := node.(map[string]any)
	if isObj {
		if tn, ok := obj["$type"].(string); ok && tn != "" {
			t := d.b.typeByLocal(tn)
			if t == nil {
				return nil, fmt.Errorf("bind: $type %q names no type in the schema", tn)
			}
			typ = t
			v.TypeName = t.TypeName()
		}
		if raw, ok := obj["$raw"].(string); ok {
			v.Kind = KindRaw
			v.Wild = true
			v.Raw = raw
			return v, nil
		}
	}
	v.typ = typ
	ct, isComplex := typ.(*xsd.ComplexType)
	if isComplex && isObj {
		attrs, err := d.attrsFromJSON(decl, ct, obj)
		if err != nil {
			return nil, err
		}
		v.Attrs = attrs
	}
	if node == nil || (isObj && obj["$nil"] == true) {
		if !decl.Nillable {
			return nil, fmt.Errorf("bind: element %s is not nillable", decl.Name)
		}
		v.Kind = KindNil
		if v.typ == nil {
			v.typ = typ
		}
		return v, nil
	}
	if st, ok := typ.(*xsd.SimpleType); ok {
		scalar := node
		if isObj {
			scalar = obj["$value"]
		}
		val, err := scalarValue(st, scalar)
		if err != nil {
			return nil, fmt.Errorf("bind: element %s: %w", decl.Name, err)
		}
		v.Kind = KindSimple
		v.Simple = val
		return v, nil
	}
	switch ct.Kind {
	case xsd.ContentSimple:
		scalar := node
		if isObj {
			scalar = obj["$value"]
		}
		val, err := scalarValue(ct.SimpleContentType, scalar)
		if err != nil {
			return nil, fmt.Errorf("bind: element %s: %w", decl.Name, err)
		}
		v.Kind = KindSimple
		v.Simple = val
		return v, nil
	case xsd.ContentEmpty:
		v.Kind = KindEmpty
		return v, nil
	case xsd.ContentMixed:
		v.Kind = KindMixed
		return v, d.mixedFromJSON(v, ct, obj)
	default:
		v.Kind = KindStruct
		return v, d.structFromJSON(v, ct, obj)
	}
}

func (d *treeDecoder) structFromJSON(v *Value, ct *xsd.ComplexType, obj map[string]any) error {
	tp := d.b.plan.For(ct)
	if tp == nil {
		return fmt.Errorf("bind: no binding plan for type %s", ct.Name)
	}
	var one [1]any
	mark := len(d.pending)
	consumed := 0 // keys of obj read below: fields' and "$any"
	for _, f := range tp.Fields {
		jv, ok := obj[f.Key]
		if !ok {
			continue
		}
		consumed++
		for _, item := range asItems(jv, &one) {
			cv, err := d.childFromJSON(tp, f, item)
			if err != nil {
				return err
			}
			d.pending = append(d.pending, cv)
		}
	}
	if anyv, ok := obj["$any"]; ok {
		consumed++
		for _, item := range asItems(anyv, &one) {
			cv, err := d.anyFromJSON(item)
			if err != nil {
				return err
			}
			d.pending = append(d.pending, cv)
		}
	}
	if key := unknownKey(obj, consumed, tp); key != "" {
		return fmt.Errorf("bind: unknown field %q for type %s", key, ct.Name)
	}
	if kids := d.pending[mark:]; len(kids) > 0 {
		v.Children = d.b.orderChildren(ct, slices.Clone(kids))
	}
	d.pending = d.pending[:mark]
	return nil
}

// unknownKey returns a key of obj that is neither a field's nor "$any",
// "$element", "$type" or an attribute's, or "". consumed counts the field
// and "$any" keys the caller read, so an object with no unknown key is
// checked in one pass without a set of the known keys.
func unknownKey(obj map[string]any, consumed int, tp *TypePlan) string {
	meta := func(key string) bool { return key == "$element" || key == "$type" || strings.HasPrefix(key, "@") }
	other := 0
	for key := range obj {
		if !meta(key) {
			other++
		}
	}
	if other == consumed {
		return ""
	}
	for key := range obj {
		if !meta(key) && key != "$any" && !slices.ContainsFunc(tp.Fields, func(f *FieldPlan) bool { return f.Key == key }) {
			return key
		}
	}
	return ""
}

// asItems returns a JSON array's elements, or jv alone as a view of one,
// so a single value needs no slice of its own.
func asItems(jv any, one *[1]any) []any {
	if items, ok := jv.([]any); ok {
		return items
	}
	one[0] = jv
	return one[:]
}

// childFromJSON builds one field occurrence, resolving a "$element"
// discriminator to a substitution-group member when present.
func (d *treeDecoder) childFromJSON(tp *TypePlan, f *FieldPlan, item any) (*Value, error) {
	decl := f.Decl
	if m, ok := item.(map[string]any); ok {
		if en, ok := m["$element"].(string); ok && en != "" && en != f.Decl.Name.Local {
			_, member := tp.fieldByLocal(en)
			if member == nil {
				return nil, fmt.Errorf("bind: $element %q is not admissible for field %q", en, f.Key)
			}
			if _, err := d.b.schema.ResolveChild(f.Decl, member.Name); err != nil {
				return nil, fmt.Errorf("bind: $element %q: %w", en, err)
			}
			decl = member
		}
	}
	if decl.Abstract {
		return nil, fmt.Errorf("bind: element %s is abstract; name a concrete substitute with $element", decl.Name)
	}
	return d.valueFromJSON(decl, item, false)
}

// anyFromJSON builds one "$any" entry: a string is a raw XML fragment, an
// object names a global element with "$element".
func (d *treeDecoder) anyFromJSON(item any) (*Value, error) {
	switch x := item.(type) {
	case string:
		return rawValue(x)
	case map[string]any:
		if raw, ok := x["$raw"].(string); ok {
			return rawValue(raw)
		}
		en, _ := x["$element"].(string)
		if en == "" {
			return nil, fmt.Errorf("bind: $any entries must be raw XML strings or objects with $element")
		}
		decl := d.b.globalByLocal(en)
		if decl == nil {
			return nil, fmt.Errorf("bind: $any element %q has no global declaration", en)
		}
		return d.valueFromJSON(decl, item, true)
	default:
		return nil, fmt.Errorf("bind: $any entries must be raw XML strings or objects with $element")
	}
}

func (d *treeDecoder) mixedFromJSON(v *Value, ct *xsd.ComplexType, obj map[string]any) error {
	tp := d.b.plan.For(ct)
	if tp == nil {
		return fmt.Errorf("bind: no binding plan for type %s", ct.Name)
	}
	for key := range obj {
		if key != "$element" && key != "$type" && key != "$mixed" && !strings.HasPrefix(key, "@") {
			return fmt.Errorf("bind: unknown field %q for mixed type %s", key, ct.Name)
		}
	}
	segs, _ := obj["$mixed"].([]any)
	for _, s := range segs {
		switch x := s.(type) {
		case string:
			v.Segments = appendText(v.Segments, x)
		case map[string]any:
			en, _ := x["$element"].(string)
			if en == "" {
				return fmt.Errorf("bind: $mixed element segments need $element")
			}
			_, decl := tp.fieldByLocal(en)
			if decl == nil {
				if gdecl := d.b.globalByLocal(en); gdecl != nil && tp.HasWildcard {
					cv, err := d.valueFromJSON(gdecl, x, true)
					if err != nil {
						return err
					}
					v.Segments = append(v.Segments, Segment{Child: cv})
					continue
				}
				return inadmissibleSegment(en, ct)
			}
			cv, err := d.valueFromJSON(decl, x, false)
			if err != nil {
				return err
			}
			v.Segments = append(v.Segments, Segment{Child: cv})
		default:
			return fmt.Errorf("bind: $mixed segments must be strings or element objects")
		}
	}
	return nil
}

// attrsFromJSON parses "@..." keys into typed attributes in declaration
// order (wildcard-admitted extras sorted by key for determinism).
func (d *treeDecoder) attrsFromJSON(decl *xsd.ElementDecl, ct *xsd.ComplexType, obj map[string]any) ([]Attr, error) {
	// given[i] is the JSON value for ct.AttributeUses[i]; the array keeps
	// the common case off the heap.
	var small [8]givenAttr
	given := small[:0]
	if n := len(ct.AttributeUses); n <= len(small) {
		given = small[:n]
	} else {
		given = make([]givenAttr, n)
	}
	var extras []string
	for key, jv := range obj {
		if !strings.HasPrefix(key, "@") {
			continue
		}
		name := parseAttrKey(key[1:])
		i := attrUseIndex(ct, name)
		if i < 0 && name.Space == "" {
			// A bare local may name a qualified declared attribute.
			for j, u := range ct.AttributeUses {
				if u.Decl.Name.Local == name.Local {
					name, i = u.Decl.Name, j
					break
				}
			}
		}
		if i < 0 || ct.AttributeUses[i].Prohibited {
			if ct.AttrWildcard == nil || !ct.AttrWildcard.Admits(name.Space) {
				return nil, fmt.Errorf("bind: attribute %q is not declared for element %s", key, decl.Name)
			}
			extras = append(extras, key)
			continue
		}
		given[i] = givenAttr{jv, true}
	}
	sort.Strings(extras)
	out := d.slab.attrSpace(len(ct.AttributeUses) + len(extras))
	for i, use := range ct.AttributeUses {
		jv, ok := given[i].v, given[i].ok
		if !ok {
			def := use.Default
			if def == nil {
				def = use.Fixed
			}
			if use.Prohibited || def == nil {
				continue
			}
			val, err := use.Decl.Type.Parse(*def)
			if err != nil {
				continue
			}
			out = append(out, Attr{Name: use.Decl.Name, Value: val})
			continue
		}
		val, err := scalarValue(use.Decl.Type, jv)
		if err != nil {
			return nil, fmt.Errorf("bind: attribute %q: %w", use.Decl.Name.Local, err)
		}
		out = append(out, Attr{Name: use.Decl.Name, Value: val})
	}
	for _, key := range extras {
		lex, err := jsonLexical(obj[key])
		if err != nil {
			return nil, fmt.Errorf("bind: attribute %q: %w", key, err)
		}
		out = append(out, Attr{Name: parseAttrKey(key[1:]), Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: lex}})
	}
	return d.slab.keepAttrs(out), nil
}

// givenAttr is the JSON value given for one attribute use, if any.
type givenAttr struct {
	v  any
	ok bool
}

// scalarValue parses a JSON scalar (or array, for list types) through a
// simple type's lexical space.
func scalarValue(st *xsd.SimpleType, node any) (xsdtypes.Value, error) {
	lex, err := jsonLexical(node)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return st.Parse(lex)
}

// jsonLexical renders a JSON scalar as an XSD lexical form; arrays join
// with single spaces (the list lexical space).
func jsonLexical(node any) (string, error) {
	switch x := node.(type) {
	case string:
		return x, nil
	case json.Number:
		return x.String(), nil
	case bool:
		if x {
			return "true", nil
		}
		return "false", nil
	case nil:
		return "", nil
	case []any:
		parts := make([]string, len(x))
		for i, it := range x {
			p, err := jsonLexical(it)
			if err != nil {
				return "", err
			}
			parts[i] = p
		}
		return strings.Join(parts, " "), nil
	default:
		return "", fmt.Errorf("unsupported JSON value for a simple type")
	}
}
