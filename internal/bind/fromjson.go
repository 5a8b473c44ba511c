package bind

// JSON → Value: the inverse of the canonical projection, used by the
// /v1/encode endpoint and the xsdbind CLI. The body is read once, by the
// tape scan in jsonreader.go, which also checks it is one well-formed
// JSON value; the walk then reads each object's members off the tape,
// sorted by role ($-keys, @attributes, fields found through the plan's
// key table), so no generic tree is built. Keys and scalars without
// escapes are substrings of one string copy of the body. A JSON object's
// key order is meaningless (a repeated key's last value wins), so the
// child sequence is reconstructed by stepping the type's content-model
// automaton greedily over the pending children (plan order breaks ties):
// models that interleave fields, like (key, value)+, reassemble correctly
// from their grouped arrays. Marshal validates, so a sequence the greedy
// walk cannot reassemble surfaces as an encode error, never as silently
// invalid XML.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// FromJSON reconstructs a typed Value from canonical JSON. The top-level
// object must carry "$element" naming a global element declaration. The
// body must be one JSON value, as encoding/json accepts it, with nothing
// but whitespace after it. The Value does not alias data.
func (b *Binder) FromJSON(data []byte) (*Value, error) {
	d := decoderPool.Get().(*jsonDecoder)
	defer d.release(false)
	return d.fromJSON(b, data)
}

// FromJSONScoped is FromJSON with the tree lent to fn: the Value is valid
// only until fn returns, when its memory goes back to pools for later
// calls. fn is not called when FromJSON would return an error; that error
// is returned instead.
func (b *Binder) FromJSONScoped(data []byte, fn func(*Value)) error {
	d := decoderPool.Get().(*jsonDecoder)
	defer d.release(true)
	v, err := d.fromJSON(b, data)
	if err != nil {
		return err
	}
	fn(v)
	return nil
}

func (d *jsonDecoder) fromJSON(b *Binder, data []byte) (*Value, error) {
	if len(data) > maxTapeBody {
		return nil, fmt.Errorf("bind: bad JSON: a %d-byte body exceeds the reader's %d-byte limit", len(data), maxTapeBody)
	}
	if err := d.scan(string(data)); err != nil {
		return nil, err
	}
	if d.kind(0) != '{' {
		return nil, fmt.Errorf("bind: top-level JSON must be an object with $element")
	}
	d.b = b
	o := d.open(0)
	name, _ := d.stringOf(o.meta[metaElement])
	if name == "" {
		return nil, fmt.Errorf("bind: top-level JSON object is missing $element")
	}
	decl := b.globalByLocal(name)
	if decl == nil {
		return nil, fmt.Errorf("bind: no global element declaration named %q", name)
	}
	return d.valueFromJSON(decl, 0, o, false)
}

// jsonDecoder is one FromJSON call: the body's tape, and the document's
// slab, from which its Values, Attr lists and child lists come. The rest
// is scratch used as stacks, innermost object last: members holds the
// open objects' members, slots the open structs' field values, and
// pending the children of the structs being built, so each struct's list
// is copied once, at its final length.
type jsonDecoder struct {
	jsonTape
	b       *Binder
	slab    slab
	members []member
	slots   []int32
	pending []*Value
}

// member is an object member: its key and the entry of its value.
type member struct {
	key string
	val int32
}

var decoderPool = sync.Pool{New: func() any { return new(jsonDecoder) }}

// maxPooledEntries bounds the tape a pooled decoder keeps, and the stacks
// of the pooled XML decoders and JSON writers: a huge document's scratch
// goes to the garbage collector instead of staying in the pool.
const maxPooledEntries = 1 << 16

// release releases the slab when the tree was only lent, or leaves it to
// the caller, clears what points into the document and returns d to the
// pool.
func (d *jsonDecoder) release(scoped bool) {
	if scoped {
		d.slab.release()
	} else {
		d.slab.forget()
	}
	if cap(d.ents) > maxPooledEntries {
		return
	}
	clear(d.members[:cap(d.members)])
	clear(d.pending[:cap(d.pending)])
	*d = jsonDecoder{jsonTape: jsonTape{ents: d.ents[:0], stack: d.stack[:0]}, slab: d.slab,
		members: d.members[:0], slots: d.slots[:0], pending: d.pending[:0]}
	decoderPool.Put(d)
}

// The $-keys of canonical JSON, as indexes into jsonObject.meta.
const (
	metaElement = iota
	metaType
	metaRaw
	metaNil
	metaValue
	metaMixed
	metaAny
	numMeta
)

func metaIndex(key string) int {
	switch key {
	case "$element":
		return metaElement
	case "$type":
		return metaType
	case "$raw":
		return metaRaw
	case "$nil":
		return metaNil
	case "$value":
		return metaValue
	case "$mixed":
		return metaMixed
	case "$any":
		return metaAny
	}
	return -1
}

// jsonObject is one object's members sorted in one pass: meta holds the
// entry of each $-key's value (the last, for a repeated key; 0 when
// absent, since entry 0 is the top-level object), and d.members[lo:hi]
// every member but "$element" and "$type", in document order. A value
// that is not an object has no members.
type jsonObject struct {
	meta   [numMeta]int32
	lo, hi int
	isObj  bool
}

// open sorts the members of the value at entry i. The caller gives them
// back with d.done.
func (d *jsonDecoder) open(i int) jsonObject {
	o := jsonObject{lo: len(d.members), isObj: d.kind(i) == '{'}
	if o.isObj {
		for j, end := i+1, d.end(i); j < end; {
			key, val := d.stringAt(j), j+1
			j = d.end(val)
			if m := metaIndex(key); m >= 0 {
				o.meta[m] = int32(val)
				if m == metaElement || m == metaType {
					continue
				}
			}
			d.members = append(d.members, member{key, int32(val)})
		}
	}
	o.hi = len(d.members)
	return o
}

func (d *jsonDecoder) done(o jsonObject) { d.members = d.members[:o.lo] }

// stringOf returns the string at entry i, if entry i is present and
// holds one.
func (d *jsonDecoder) stringOf(i int32) (string, bool) {
	if i == 0 || d.kind(int(i)) != '"' {
		return "", false
	}
	return d.stringAt(int(i)), true
}

// items returns the entries an array field holds, or the lone value: the
// first, and the index past the last, stepping with d.end.
func (d *jsonDecoder) items(i int) (first, end int) {
	if d.kind(i) == '[' {
		return i + 1, d.end(i)
	}
	return i, d.end(i)
}

// globalByLocal finds a global element declaration by local name,
// preferring the target namespace.
func (b *Binder) globalByLocal(local string) *xsd.ElementDecl {
	if d, ok := b.schema.Elements[xsd.QName{Space: b.schema.TargetNamespace, Local: local}]; ok {
		return d
	}
	if d, ok := b.schema.Elements[xsd.QName{Local: local}]; ok {
		return d
	}
	var names []xsd.QName
	for q := range b.schema.Elements {
		if q.Local == local {
			names = append(names, q)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Space < names[j].Space })
	return b.schema.Elements[names[0]]
}

// typeByLocal resolves a "$type" discriminator to a named type.
func (b *Binder) typeByLocal(local string) xsd.Type {
	if t, ok := b.schema.LookupType(xsd.QName{Space: b.schema.TargetNamespace, Local: local}); ok {
		return t
	}
	if t, ok := b.schema.LookupType(xsd.QName{Space: xsd.XSDNamespace, Local: local}); ok {
		return t
	}
	if t, ok := b.schema.LookupType(xsd.QName{Local: local}); ok {
		return t
	}
	var names []xsd.QName
	for q := range b.schema.Types {
		if q.Local == local {
			names = append(names, q)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Space < names[j].Space })
	t, _ := b.schema.LookupType(names[0])
	return t
}

func (d *jsonDecoder) valueFromJSON(decl *xsd.ElementDecl, i int, o jsonObject, wild bool) (*Value, error) {
	v := d.slab.value()
	v.Name, v.Wild = decl.Name, wild
	typ := decl.Type
	if tn, ok := d.stringOf(o.meta[metaType]); ok && tn != "" {
		t := d.b.typeByLocal(tn)
		if t == nil {
			return nil, fmt.Errorf("bind: $type %q names no type in the schema", tn)
		}
		typ = t
		v.TypeName = t.TypeName()
	}
	if raw, ok := d.stringOf(o.meta[metaRaw]); ok {
		v.Kind = KindRaw
		v.Wild = true
		v.Raw = raw
		return v, nil
	}
	v.typ = typ
	ct, isComplex := typ.(*xsd.ComplexType)
	if isComplex && o.isObj {
		attrs, err := d.attrsFromJSON(decl, ct, o)
		if err != nil {
			return nil, err
		}
		v.Attrs = attrs
	}
	if d.kind(i) == 'n' || (o.meta[metaNil] != 0 && d.kind(int(o.meta[metaNil])) == 't') {
		if !decl.Nillable {
			return nil, fmt.Errorf("bind: element %s is not nillable", decl.Name)
		}
		v.Kind = KindNil
		return v, nil
	}
	if st, ok := typ.(*xsd.SimpleType); ok {
		return v, d.simpleFromJSON(v, decl, st, i, o)
	}
	switch ct.Kind {
	case xsd.ContentSimple:
		return v, d.simpleFromJSON(v, decl, ct.SimpleContentType, i, o)
	case xsd.ContentEmpty:
		v.Kind = KindEmpty
		return v, nil
	case xsd.ContentMixed:
		v.Kind = KindMixed
		return v, d.mixedFromJSON(v, ct, o)
	default:
		v.Kind = KindStruct
		return v, d.structFromJSON(v, ct, o)
	}
}

// simpleFromJSON parses the scalar at entry i, or an object's "$value",
// into v.
func (d *jsonDecoder) simpleFromJSON(v *Value, decl *xsd.ElementDecl, st *xsd.SimpleType, i int, o jsonObject) error {
	if o.isObj {
		i = int(o.meta[metaValue])
	}
	val, err := d.scalarValue(st, i)
	if err != nil {
		return fmt.Errorf("bind: element %s: %w", decl.Name, err)
	}
	v.Kind = KindSimple
	v.Simple = val
	return nil
}

func (d *jsonDecoder) structFromJSON(v *Value, ct *xsd.ComplexType, o jsonObject) error {
	tp := d.b.plan.For(ct)
	if tp == nil {
		return fmt.Errorf("bind: no binding plan for type %s", ct.Name)
	}
	// d.slots[base+k] is the entry of field k's value; an unknown key is
	// reported once the fields have been read.
	base := len(d.slots)
	d.slots = slices.Grow(d.slots, len(tp.Fields))[:base+len(tp.Fields)]
	clear(d.slots[base:])
	unknown, hasUnknown := "", false
	for k := o.lo; k < o.hi; k++ {
		m := d.members[k]
		if f, ok := tp.byKey[m.key]; ok {
			d.slots[base+f] = m.val
		} else if !hasUnknown && m.key != "$any" && !strings.HasPrefix(m.key, "@") {
			unknown, hasUnknown = m.key, true
		}
	}
	mark := len(d.pending)
	for k, f := range tp.Fields {
		jv := d.slots[base+k]
		if jv == 0 {
			continue
		}
		for j, end := d.items(int(jv)); j < end; j = d.end(j) {
			cv, err := d.childFromJSON(tp, f, j)
			if err != nil {
				return err
			}
			d.pending = append(d.pending, cv)
		}
	}
	d.slots = d.slots[:base]
	if jv := o.meta[metaAny]; jv != 0 {
		for j, end := d.items(int(jv)); j < end; j = d.end(j) {
			cv, err := d.anyFromJSON(j)
			if err != nil {
				return err
			}
			d.pending = append(d.pending, cv)
		}
	}
	if hasUnknown {
		return fmt.Errorf("bind: unknown field %q for type %s", unknown, ct.Name)
	}
	if kids := d.pending[mark:]; len(kids) > 0 {
		v.Children = d.b.orderChildren(ct, d.slab.children(kids))
	}
	d.pending = d.pending[:mark]
	return nil
}

// orderChildren arranges reconstructed children into a sequence the
// type's content model accepts, by greedily stepping the compiled
// automaton: at each position the first pending child (in plan-grouped
// order) whose symbol the automaton admits is emitted next. Models whose
// repetitions interleave fields — (key, value)+ — reassemble from
// grouped JSON arrays this way. If the walk dead-ends the original order
// is returned and Marshal's validation reports the failure.
//
// The walk is one forward pass over one run. Children of one name are
// alike to the automaton, so the pending children are kept as one queue
// per name, and only the queue heads are tried: the first pending child
// the run admits is the earliest head it admits. The cost is O(children ×
// distinct names).
func (b *Binder) orderChildren(ct *xsd.ComplexType, children []*Value) []*Value {
	if len(children) < 2 {
		return children
	}
	g := ct.Matcher(b.schema)
	// Fast path: the grouped order is already admissible.
	if admissible(g, children) {
		return children
	}
	type queue struct {
		sym  contentmodel.Symbol
		at   []int // positions in children, in order
		head int
	}
	var queues []queue
	byName := map[contentmodel.Symbol]int{}
	for i, c := range children {
		sym := contentmodel.Symbol{Space: c.Name.Space, Local: c.Name.Local}
		q, ok := byName[sym]
		if !ok {
			q = len(queues)
			byName[sym] = q
			queues = append(queues, queue{sym: sym})
		}
		queues[q].at = append(queues[q].at, i)
	}
	var r contentmodel.Run
	r.Reset(g)
	order := make([]*Value, 0, len(children))
	for len(order) < len(children) {
		best, bestAt := -1, len(children)
		for i := range queues {
			q := &queues[i]
			if q.head < len(q.at) && q.at[q.head] < bestAt && r.Admits(q.sym) {
				best, bestAt = i, q.at[q.head]
			}
		}
		if best < 0 {
			return children
		}
		r.Step(queues[best].sym)
		order = append(order, children[bestAt])
		queues[best].head++
	}
	return order
}

// admissible reports whether the automaton accepts the children's names in
// order. The run lives on the stack: checking allocates nothing.
func admissible(g *contentmodel.Glushkov, children []*Value) bool {
	var r contentmodel.Run
	r.Reset(g)
	for _, c := range children {
		if _, merr := r.Step(contentmodel.Symbol{Space: c.Name.Space, Local: c.Name.Local}); merr != nil {
			return false
		}
	}
	return r.End() == nil
}

// childFromJSON builds one field occurrence, resolving a "$element"
// discriminator to a substitution-group member when present.
func (d *jsonDecoder) childFromJSON(tp *TypePlan, f *FieldPlan, i int) (*Value, error) {
	decl := f.Decl
	o := d.open(i)
	if en, ok := d.stringOf(o.meta[metaElement]); ok && en != "" && en != f.Decl.Name.Local {
		_, member := tp.fieldByLocal(en)
		if member == nil {
			return nil, fmt.Errorf("bind: $element %q is not admissible for field %q", en, f.Key)
		}
		if _, err := d.b.schema.ResolveChild(f.Decl, member.Name); err != nil {
			return nil, fmt.Errorf("bind: $element %q: %w", en, err)
		}
		decl = member
	}
	if decl.Abstract {
		return nil, fmt.Errorf("bind: element %s is abstract; name a concrete substitute with $element", decl.Name)
	}
	v, err := d.valueFromJSON(decl, i, o, false)
	d.done(o)
	return v, err
}

// anyFromJSON builds one "$any" entry: a string is a raw XML fragment, an
// object names a global element with "$element".
func (d *jsonDecoder) anyFromJSON(i int) (*Value, error) {
	switch d.kind(i) {
	case '"':
		return rawValue(d.stringAt(i))
	case '{':
		o := d.open(i)
		defer d.done(o)
		if raw, ok := d.stringOf(o.meta[metaRaw]); ok {
			return rawValue(raw)
		}
		en, _ := d.stringOf(o.meta[metaElement])
		if en == "" {
			return nil, fmt.Errorf("bind: $any entries must be raw XML strings or objects with $element")
		}
		decl := d.b.globalByLocal(en)
		if decl == nil {
			return nil, fmt.Errorf("bind: $any element %q has no global declaration", en)
		}
		return d.valueFromJSON(decl, i, o, true)
	default:
		return nil, fmt.Errorf("bind: $any entries must be raw XML strings or objects with $element")
	}
}

func (d *jsonDecoder) mixedFromJSON(v *Value, ct *xsd.ComplexType, o jsonObject) error {
	tp := d.b.plan.For(ct)
	if tp == nil {
		return fmt.Errorf("bind: no binding plan for type %s", ct.Name)
	}
	for k := o.lo; k < o.hi; k++ {
		if key := d.members[k].key; key != "$mixed" && !strings.HasPrefix(key, "@") {
			return fmt.Errorf("bind: unknown field %q for mixed type %s", key, ct.Name)
		}
	}
	segs := int(o.meta[metaMixed])
	if segs == 0 || d.kind(segs) != '[' {
		return nil
	}
	for j, end := segs+1, d.end(segs); j < end; j = d.end(j) {
		switch d.kind(j) {
		case '"':
			v.Segments = appendText(v.Segments, d.stringAt(j))
		case '{':
			so := d.open(j)
			en, _ := d.stringOf(so.meta[metaElement])
			if en == "" {
				return fmt.Errorf("bind: $mixed element segments need $element")
			}
			_, decl := tp.fieldByLocal(en)
			wild := false
			if decl == nil {
				if decl = d.b.globalByLocal(en); decl == nil || !tp.HasWildcard {
					return inadmissibleSegment(en, ct)
				}
				wild = true
			}
			cv, err := d.valueFromJSON(decl, j, so, wild)
			if err != nil {
				return err
			}
			d.done(so)
			v.Segments = append(v.Segments, Segment{Child: cv})
		default:
			return fmt.Errorf("bind: $mixed segments must be strings or element objects")
		}
	}
	return nil
}

// inadmissibleSegment reports a $mixed segment whose $element names
// neither a field of the type nor, under a wildcard, a global element.
func inadmissibleSegment(en string, ct *xsd.ComplexType) error {
	return fmt.Errorf("bind: $mixed element %q is not admissible in type %s", en, ct.Name)
}

// attrsFromJSON parses "@..." keys into typed attributes in declaration
// order (wildcard-admitted extras sorted by key for determinism). A
// repeated key, or two keys naming one attribute, take the last value;
// of several undeclared attributes the first is reported.
func (d *jsonDecoder) attrsFromJSON(decl *xsd.ElementDecl, ct *xsd.ComplexType, o jsonObject) ([]Attr, error) {
	// given[i] is the entry of the value for ct.AttributeUses[i], 0 when
	// absent; the array keeps the common case off the heap.
	var small [8]int32
	given := small[:0]
	if n := len(ct.AttributeUses); n <= len(small) {
		given = small[:n]
	} else {
		given = make([]int32, n)
	}
	var extras []member
	for k := o.lo; k < o.hi; k++ {
		m := d.members[k]
		if !strings.HasPrefix(m.key, "@") {
			continue
		}
		name := parseAttrKey(m.key[1:])
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
				return nil, fmt.Errorf("bind: attribute %q is not declared for element %s", m.key, decl.Name)
			}
			extras = append(extras, m)
			continue
		}
		given[i] = m.val
	}
	if len(extras) > 1 {
		slices.SortStableFunc(extras, func(a, b member) int { return strings.Compare(a.key, b.key) })
		// A repeated key keeps its last value.
		kept := extras[:0]
		for k, m := range extras {
			if k+1 < len(extras) && extras[k+1].key == m.key {
				continue
			}
			kept = append(kept, m)
		}
		extras = kept
	}
	out := d.slab.attrSpace(len(ct.AttributeUses) + len(extras))
	for i, use := range ct.AttributeUses {
		if given[i] == 0 {
			if val, ok := use.DefaultValue(); ok && !use.Prohibited {
				out = append(out, Attr{Name: use.Decl.Name, Value: val})
			}
			continue
		}
		val, err := d.scalarValue(use.Decl.Type, int(given[i]))
		if err != nil {
			return nil, fmt.Errorf("bind: attribute %q: %w", use.Decl.Name.Local, err)
		}
		out = append(out, Attr{Name: use.Decl.Name, Value: val})
	}
	for _, m := range extras {
		lex, err := d.lexical(int(m.val))
		if err != nil {
			return nil, fmt.Errorf("bind: attribute %q: %w", m.key, err)
		}
		out = append(out, Attr{Name: parseAttrKey(m.key[1:]), Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: lex}})
	}
	return d.slab.keepAttrs(out), nil
}

// attrUseIndex is ct.FindAttributeUse as an index into ct.AttributeUses,
// or -1.
func attrUseIndex(ct *xsd.ComplexType, name xsd.QName) int {
	for i, u := range ct.AttributeUses {
		if u.Decl.Name == name {
			return i
		}
	}
	return -1
}

// rawValue wraps a raw XML fragment, parsing it to recover the element
// name (which child ordering and serialization need).
func rawValue(raw string) (*Value, error) {
	doc, err := dom.Parse([]byte(raw))
	if err != nil {
		return nil, fmt.Errorf("bind: $raw fragment does not parse: %w", err)
	}
	defer doc.Release()
	root := doc.DocumentElement()
	if root == nil {
		return nil, fmt.Errorf("bind: $raw fragment has no element")
	}
	name := xsd.QName{Space: root.NamespaceURI(), Local: root.LocalName()}
	return &Value{Name: name, Kind: KindRaw, Wild: true, Raw: raw}, nil
}

// parseAttrKey inverts attrKey: Clark notation or a bare local name.
func parseAttrKey(s string) xsd.QName {
	if strings.HasPrefix(s, "{") {
		if i := strings.IndexByte(s, '}'); i > 0 {
			return xsd.QName{Space: s[1:i], Local: s[i+1:]}
		}
	}
	return xsd.QName{Local: s}
}

// scalarValue parses the JSON scalar at entry i (or array, for list
// types) through a simple type's lexical space; entry 0 is an absent
// value, read as "".
func (d *jsonDecoder) scalarValue(st *xsd.SimpleType, i int) (xsdtypes.Value, error) {
	lex, err := d.lexical(i)
	if err != nil {
		return xsdtypes.Value{}, err
	}
	return st.Parse(lex)
}

// lexical renders the JSON scalar at entry i as an XSD lexical form:
// strings as decoded, numbers as written, null and an absent value (entry
// 0) as ""; arrays join with single spaces (the list lexical space).
func (d *jsonDecoder) lexical(i int) (string, error) {
	if i == 0 {
		return "", nil
	}
	switch d.kind(i) {
	case '"':
		return d.stringAt(i), nil
	case 'n':
		return "", nil
	case '{':
		return "", fmt.Errorf("unsupported JSON value for a simple type")
	case '[':
		var parts []string
		for j, end := i+1, d.end(i); j < end; j = d.end(j) {
			p, err := d.lexical(j)
			if err != nil {
				return "", err
			}
			parts = append(parts, p)
		}
		return strings.Join(parts, " "), nil
	default: // a number, true or false
		return d.text(i), nil
	}
}
