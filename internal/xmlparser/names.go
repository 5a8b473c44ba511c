package xmlparser

// NameTable maps resolved element names to the dense IDs of a schema's
// content-model symbols (contentmodel.Interner implements it). A table may
// gain names while a document is read, but never loses one or changes an
// ID. Decoders read it through Options.Names and report what they find on
// each start tag (Token.SymbolID), so a validator steps its automata by ID
// without resolving the name again. Its dynamic type must be comparable
// (a pointer, typically): a parsed tree compares tables to tell whose IDs
// its elements hold.
type NameTable interface {
	NameID(space, local string) (int32, bool)
}

// nameEntry is what the decoder has worked out about one raw element or
// attribute name. Entries live in the decoder's name memo, keyed by the
// raw name, so a repeated name is split and checked once, resolved once
// per namespace scope, and looked up in the name table once per scope.
//
// The resolution holds while the decoder's nsGen equals gen: nsGen changes
// only when a declaration changes what a prefix is bound to (and at the
// start of every document), so most documents resolve each name once. A
// table miss is not memoized: content models compile lazily and may intern
// the name later in the document.
type nameEntry struct {
	raw string
	idx int32  // position in Decoder.memo
	gen uint64 // nsGen at which name.Space and bound were looked up; 0: never
	// name is raw split at the first colon, as splitRawName does, with
	// Space the URI lookupNS gave its prefix at gen.
	name Name
	sym  int32 // 1 + the table's ID for name, found at gen; 0: none

	ncName bool // the prefix, if any, and the local part are NCNames
	bound  bool // at gen, the prefix is bound
	elemOK bool // at gen, the name resolves as an element name
}

// nameSlab is how many entries the memo allocates at once.
const nameSlab = 32

// memoName returns the memo entry of the raw name b, adding one when the
// memo has room, or nil: long names and names met once the memo and the
// intern cache are full go unmemoized, as do all names under the
// reference scanner (noBulk), which
// keeps the per-tag name work as the oracle the memo is tested against.
func (d *Decoder) memoName(b []byte) *nameEntry {
	if d.noBulk || len(b) > maxInternLen {
		return nil
	}
	if e, ok := d.names[string(b)]; ok {
		return e
	}
	if d.cached() >= maxInternEntries {
		return nil
	}
	if d.names == nil {
		d.names = make(map[string]*nameEntry)
	}
	if len(d.nameSlab) == 0 {
		d.nameSlab = make([]nameEntry, nameSlab)
	}
	e := &d.nameSlab[0]
	d.nameSlab = d.nameSlab[1:]
	raw := string(b)
	n := splitRawName(raw)
	ok := IsNCName(n.Local)
	if n.Prefix != "" {
		ok = ok && IsNCName(n.Prefix)
	}
	*e = nameEntry{raw: raw, idx: int32(len(d.memo)), name: n, ncName: ok}
	d.names[raw] = e
	d.memo = append(d.memo, e)
	return e
}

// qname reads an element or attribute name and returns it with its memo
// entry (nil when it has none).
func (d *Decoder) qname(what string) (*nameEntry, string, error) {
	b, err := d.scanName(what)
	if err != nil {
		return nil, "", err
	}
	e, raw := d.memoRaw(b)
	return e, raw, nil
}

// memoRaw returns the memo entry of the raw element or attribute name b
// (nil when it has none) and b as a string.
func (d *Decoder) memoRaw(b []byte) (*nameEntry, string) {
	if e := d.memoName(b); e != nil {
		return e, e.raw
	}
	return nil, d.internBytes(b)
}

// resolve brings e's prefix resolution up to the current scope.
func (d *Decoder) resolve(e *nameEntry) {
	if e.gen != d.nsGen {
		e.name.Space, e.bound = d.lookupNS(e.name.Prefix)
		e.gen, e.sym = d.nsGen, 0
		e.elemOK = e.ncName && (e.bound || e.name.Prefix == "")
	}
}

// symbol returns 1 + the name table's ID for the element name n, or 0
// when there is no table or it does not hold n. e, when not nil, is n's
// memo entry, resolved in the current scope.
func (d *Decoder) symbol(e *nameEntry, n Name) int32 {
	tab := d.opts.Names
	if tab == nil {
		return 0
	}
	if e != nil && e.sym != 0 {
		return e.sym
	}
	id, ok := tab.NameID(n.Space, n.Local)
	if !ok {
		return 0
	}
	if e != nil {
		e.sym = id + 1
	}
	return id + 1
}

// applyNamespaces processes the xmlns declarations in attrs, pushing their
// bindings, and resolves the names of the start tag t (its Name holds the
// raw name) and of its attributes. It reports whether the declarations
// changed the scope. Names with a memo entry (e, and d.attrNames for the
// attributes) are resolved once per state of the scope: a tag that
// declares nothing and repeats names resolved before only reads the memo.
func (d *Decoder) applyNamespaces(t *Token, e *nameEntry, attrs []Attr) (bool, error) {
	bumped := false
	if len(attrs) > 0 {
		var err error
		if bumped, err = d.declare(attrs); err != nil {
			return false, err
		}
	}
	if e != nil {
		d.resolve(e)
	}
	if e != nil && e.elemOK {
		t.Name = e.name
	} else if err := d.resolveElem(t); err != nil {
		return false, err
	}
	t.sym = d.symbol(e, t.Name)
	if len(attrs) > 0 {
		return bumped, d.resolveAttrs(attrs)
	}
	return bumped, nil
}

// declare checks the namespace declarations among attrs, marks them, and
// pushes their bindings. It reports whether they changed the scope, which
// then moves nsGen on, staling the memo's resolutions.
func (d *Decoder) declare(attrs []Attr) (bool, error) {
	decls := false
	for i := range attrs {
		a := &attrs[i]
		prefix, local := a.Name.Prefix, a.Name.Local
		isDecl := prefix == "xmlns" || (prefix == "" && local == "xmlns")
		if !isDecl {
			continue
		}
		a.IsNamespaceDecl, decls = true, true
		declPrefix := ""
		if prefix == "xmlns" {
			declPrefix = local
		}
		switch declPrefix {
		case "xmlns":
			return false, d.errf(a.Pos, "prefix \"xmlns\" cannot be declared")
		case "xml":
			if a.Value != XMLNamespace {
				return false, d.errf(a.Pos, "prefix \"xml\" cannot be rebound")
			}
		default:
			if a.Value == XMLNamespace || a.Value == XMLNSNamespace {
				return false, d.errf(a.Pos, "namespace %q cannot be bound to prefix %q", a.Value, declPrefix)
			}
		}
		if declPrefix != "" && a.Value == "" {
			return false, d.errf(a.Pos, "cannot undeclare prefix %q with an empty namespace name (XML 1.0)", declPrefix)
		}
		if declPrefix != "" && !IsNCName(declPrefix) {
			return false, d.errf(a.Pos, "bad namespace prefix %q", declPrefix)
		}
	}
	if !decls {
		return false, nil
	}
	// Every declaration is well formed: push the bindings. The literal
	// duplicate check guarantees one declaration per prefix per element.
	bumped := false
	for i := range attrs {
		if a := &attrs[i]; a.IsNamespaceDecl {
			declPrefix := ""
			if a.Name.Prefix == "xmlns" {
				declPrefix = a.Name.Local
			}
			if uri, ok := d.lookupNS(declPrefix); !ok || uri != a.Value {
				bumped = true
			}
			d.ns.Push(declPrefix, a.Value)
		}
	}
	if bumped {
		d.nsGen++
	}
	return bumped, nil
}

// resolveElem resolves the start tag t's raw name without the memo, or
// reports why it does not resolve.
func (d *Decoder) resolveElem(t *Token) error {
	raw := t.Name.Local
	en := splitRawName(raw)
	if en.Prefix != "" {
		if !IsNCName(en.Prefix) || !IsNCName(en.Local) {
			return d.errf(t.Pos, "bad qualified name %q", raw)
		}
		uri, ok := d.lookupNS(en.Prefix)
		if !ok {
			return d.errf(t.Pos, "undeclared namespace prefix %q on element <%s>", en.Prefix, raw)
		}
		en.Space = uri
	} else {
		if !IsNCName(en.Local) {
			return d.errf(t.Pos, "bad element name %q", raw)
		}
		en.Space, _ = d.lookupNS("")
	}
	t.Name = en
	return nil
}

// resolveAttrs resolves the prefixed attribute names of a start tag whose
// declarations are marked and pushed, and checks that no two name one
// {Space, Local}.
func (d *Decoder) resolveAttrs(attrs []Attr) error {
	prefixed := 0
	for i := range attrs {
		a := &attrs[i]
		if a.IsNamespaceDecl {
			a.Name.Space = XMLNSNamespace
			continue
		}
		if a.Name.Prefix == "" {
			continue // unprefixed attributes are in no namespace
		}
		prefixed++
		ok, bound := false, false
		if ae := d.attrNames[i]; ae != nil {
			if ok = ae.ncName; ok {
				d.resolve(ae)
				a.Name.Space, bound = ae.name.Space, ae.bound
			}
		} else if ok = IsNCName(a.Name.Prefix) && IsNCName(a.Name.Local); ok {
			a.Name.Space, bound = d.lookupNS(a.Name.Prefix)
		}
		if !ok {
			return d.errf(a.Pos, "bad qualified attribute name %q", a.Name.Qualified())
		}
		if !bound {
			return d.errf(a.Pos, "undeclared namespace prefix %q on attribute", a.Name.Prefix)
		}
	}
	// Post-resolution duplicate check: same {uri, local} via different
	// prefixes. Only prefixed attributes take part (a bound prefix never
	// resolves to ""), so a tag with fewer than two has none.
	if prefixed > 1 {
		if j := firstDuplicate(attrs, resolvedKey); j >= 0 {
			return d.errf(attrs[j].Pos, "duplicate attribute {%s}%s", attrs[j].Name.Space, attrs[j].Name.Local)
		}
	}
	return nil
}

// popScope drops the bindings an element declared, moving nsGen on when
// they had changed the scope.
func (d *Decoder) popScope(mark int, bumped bool) {
	d.ns.Pop(mark)
	if bumped {
		d.nsGen++
	}
}
