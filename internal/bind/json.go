package bind

// Canonical JSON projection of decoded values. The mapping (DESIGN.md
// §12): attributes become "@name" keys, simple content "$value", plural
// fields are always arrays, choices surface as whichever field key is
// present, substitution members and mixed/any children carry an
// "$element" discriminator, xsi:nil becomes null, wildcard content binds
// under "$any" (raw fragments as "$raw" strings). Emission order is
// deterministic — plan order for fields, document order within a field —
// so equal values render byte-equal JSON.

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"unicode/utf8"

	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// JSON renders a decoded value as canonical JSON.
func (b *Binder) JSON(v *Value) []byte { return b.AppendJSON(nil, v) }

// AppendJSON appends v's canonical JSON to dst and returns the extended
// buffer, so a caller that sizes dst once gets the JSON without a copy.
func (b *Binder) AppendJSON(dst []byte, v *Value) []byte {
	jw := jsonWriters.Get().(*jsonWriter)
	jw.b, jw.w = b, *bytes.NewBuffer(dst)
	jw.writeJSON(v, true)
	out := jw.w.Bytes()
	if cap(jw.kids) <= maxPooledEntries {
		*jw = jsonWriter{kids: jw.kids[:0]}
		jsonWriters.Put(jw)
	}
	return out
}

// jsonWriter is one AppendJSON call: the output, and the scratch stack
// on which writeStructFields groups each struct's children by field.
type jsonWriter struct {
	b    *Binder
	w    bytes.Buffer
	kids []fieldKid
}

// fieldKid is a struct's child and the index of its field in the plan,
// or the number of fields for a "$any" child.
type fieldKid struct {
	field int
	v     *Value
}

var jsonWriters = sync.Pool{New: func() any { return new(jsonWriter) }}

// JSONIndent is JSON pretty-printed for humans (CLI output).
func (b *Binder) JSONIndent(v *Value) []byte {
	var out bytes.Buffer
	if err := json.Indent(&out, b.JSON(v), "", "  "); err != nil {
		return b.JSON(v)
	}
	return out.Bytes()
}

func writeJSONString(w *bytes.Buffer, s string) {
	w.Write(AppendJSONString(w.AvailableBuffer(), s))
}

// jsonSafe marks the ASCII bytes a JSON string literal carries as is.
var jsonSafe [utf8.RuneSelf]bool

func init() {
	for c := ' '; c < utf8.RuneSelf; c++ {
		jsonSafe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
}

// AppendJSONString appends s as a JSON string literal, byte for byte as
// encoding/json writes it: <, > and & as \u003c, \u003e and \u0026, the
// separators U+2028 and U+2029 escaped, and each invalid UTF-8 byte as
// \ufffd. JSON written with it is already compact and escaped, so a
// response can embed it without encoding/json re-scanning it.
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[last:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			last = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[last:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[last:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		last = i
	}
	dst = append(dst, s[last:]...)
	return append(dst, '"')
}

// attrKey renders an attribute name as a JSON key: "@local", expanded
// with the namespace for qualified attributes.
func attrKey(name xsd.QName) string {
	if name.Space == "" {
		return "@" + name.Local
	}
	return "@" + name.String()
}

func (jw *jsonWriter) writeJSON(v *Value, withElem bool) {
	w := &jw.w
	if v == nil {
		w.WriteString("null")
		return
	}
	// Scalar and null shortcuts for undecorated field values.
	if !withElem && v.TypeName.IsZero() && len(v.Attrs) == 0 {
		switch v.Kind {
		case KindSimple:
			writeScalar(w, v.Simple)
			return
		case KindNil:
			w.WriteString("null")
			return
		}
	}
	w.WriteByte('{')
	first := true
	field := func(key string) {
		if !first {
			w.WriteByte(',')
		}
		first = false
		writeJSONString(w, key)
		w.WriteByte(':')
	}
	if withElem && !v.Name.IsZero() {
		field("$element")
		writeJSONString(w, v.Name.Local)
	}
	if !v.TypeName.IsZero() {
		field("$type")
		writeJSONString(w, v.TypeName.Local)
	}
	for _, a := range v.Attrs {
		field(attrKey(a.Name))
		writeScalar(w, a.Value)
	}
	switch v.Kind {
	case KindNil:
		field("$nil")
		w.WriteString("true")
	case KindSimple:
		field("$value")
		writeScalar(w, v.Simple)
	case KindRaw:
		field("$raw")
		writeJSONString(w, v.Raw)
	case KindMixed:
		field("$mixed")
		w.WriteByte('[')
		for i, s := range v.Segments {
			if i > 0 {
				w.WriteByte(',')
			}
			if s.Child == nil {
				writeJSONString(w, s.Text)
			} else {
				jw.writeJSON(s.Child, true)
			}
		}
		w.WriteByte(']')
	case KindStruct:
		jw.writeStructFields(v, field)
	}
	w.WriteByte('}')
}

// writeStructFields groups document-order children into plan-order
// fields, wildcard children last under "$any". The children, stably
// sorted by field, sit on the writer's scratch stack at kids[lo:hi]; the
// writes of the children push their own past hi, so only the indexes
// are kept across them.
func (jw *jsonWriter) writeStructFields(v *Value, field func(string)) {
	w := &jw.w
	tp := jw.b.plan.For(v.typ)
	var fields []*FieldPlan
	if tp != nil {
		fields = tp.Fields
	}
	lo := len(jw.kids)
	for _, c := range v.Children {
		k := len(fields)
		if tp != nil && !c.Wild {
			if f := tp.byName[c.Name]; f != nil {
				k = f.index
			}
		}
		jw.kids = append(jw.kids, fieldKid{k, c})
	}
	hi := len(jw.kids)
	slices.SortStableFunc(jw.kids[lo:hi], func(a, b fieldKid) int { return a.field - b.field })
	for i := lo; i < hi; {
		k, j := jw.kids[i].field, i+1
		for j < hi && jw.kids[j].field == k {
			j++
		}
		if k == len(fields) {
			field("$any")
			w.WriteByte('[')
			for n := i; n < j; n++ {
				if n > i {
					w.WriteByte(',')
				}
				c := jw.kids[n].v
				jw.writeJSON(c, c.Kind != KindRaw)
			}
			w.WriteByte(']')
		} else if f := fields[k]; f.Plural || j-i > 1 {
			field(f.Key)
			w.WriteByte('[')
			for n := i; n < j; n++ {
				if n > i {
					w.WriteByte(',')
				}
				c := jw.kids[n].v
				jw.writeJSON(c, c.Name != f.Decl.Name)
			}
			w.WriteByte(']')
		} else {
			field(f.Key)
			c := jw.kids[i].v
			jw.writeJSON(c, c.Name != f.Decl.Name)
		}
		i = j
	}
	clear(jw.kids[lo:hi])
	jw.kids = jw.kids[:lo]
}

// writeScalar renders an xsdtypes value as a JSON scalar: booleans and
// finite numbers natively, lists as arrays, everything else (including
// INF/NaN, whose canonical lexical forms are not JSON numbers) as the
// canonical lexical string.
func writeScalar(w *bytes.Buffer, val xsdtypes.Value) {
	switch val.Kind {
	case xsdtypes.VBool, xsdtypes.VDecimal:
		w.WriteString(val.String())
	case xsdtypes.VFloat:
		if f := val.Float(); math.IsInf(f, 0) || math.IsNaN(f) {
			writeJSONString(w, val.String())
			return
		}
		w.WriteString(val.String())
	case xsdtypes.VList:
		w.WriteByte('[')
		for i, it := range val.List() {
			if i > 0 {
				w.WriteByte(',')
			}
			writeScalar(w, it)
		}
		w.WriteByte(']')
	default:
		writeJSONString(w, val.String())
	}
}
