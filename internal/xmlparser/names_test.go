package xmlparser

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// growingTable is a name table that, like a schema whose content models
// compile while a document is read, gains names as it is asked: a name
// with an even-length local part is missed on its first lookup and holds
// an ID from its second on; one with an odd-length local part is never
// held. Its growth depends only on how often each name is asked for, so a
// decoder that asks on every start tag (the reference scanner) and one
// that asks until it hits (the memo, which keeps no miss) see the same
// table.
type growingTable struct {
	ids    map[[2]string]int32
	missed map[[2]string]bool
}

func newGrowingTable() *growingTable {
	return &growingTable{ids: map[[2]string]int32{}, missed: map[[2]string]bool{}}
}

func (g *growingTable) NameID(space, local string) (int32, bool) {
	k := [2]string{space, local}
	if id, ok := g.ids[k]; ok {
		return id, true
	}
	if len(local)%2 == 0 && g.missed[k] {
		id := int32(len(g.ids))
		g.ids[k] = id
		return id, true
	}
	g.missed[k] = true
	return 0, false
}

// constTable holds every name, all with ID 7.
type constTable struct{}

func (constTable) NameID(string, string) (int32, bool) { return 7, true }

// nameRead is one read of a document: its detached tokens with their
// symbol IDs taken out, the IDs, and the error that ended it.
type nameRead struct {
	toks []Token
	syms []int32
	err  string
}

// readNames reads src on d, started in the mode given, with the name table
// tab (nil for none).
func readNames(d *Decoder, src string, reader, noBulk bool, tab NameTable) nameRead {
	opts := &Options{Namespaces: true, Names: tab}
	if reader {
		d.start(&chunkReader{s: src, n: 7}, nil, opts)
	} else {
		d.start(nil, []byte(src), opts)
	}
	d.noBulk = noBulk
	var r nameRead
	for {
		t, err := d.Token()
		if err != nil || t == nil {
			r.err = fmt.Sprint(err)
			return r
		}
		tc := *t
		tc.Detach()
		r.syms = append(r.syms, tc.SymbolID())
		tc.sym = 0
		r.toks = append(r.toks, tc)
	}
}

// nameMemoPrimers are read on a decoder before the input. They bind the
// input's likely prefixes otherwise, and fill the memo with resolutions
// and symbol IDs (from another table) that must not carry over: one
// closes every scope it opens, one declares nothing, and one ends with its
// bindings in scope.
var nameMemoPrimers = []string{
	`<p:a xmlns:p="u1" xmlns="d1" xmlns:q="u1"><p:x p:y="1" q:z="2"/><x/><a b="1"/><c xmlns="">` +
		`<x/></c><r><s><p:x/></s><s xmlns:p="u2"><p:x/></s></r></p:a>`,
	`<r><a b="1"/><aa/><b/><bb/><c/><d/><e/><s/><x/><z/></r>`,
	`<r xmlns:p="u1" xmlns="d1"><p:x p:c="1"/><a/><aa/><b/><bb/><p:b/><p:bb/><p:c/><p:xx/><s/><x/>`,
}

// FuzzNameMemo holds the decoder's name memo (split, checks, resolution,
// symbol IDs) to the reference scanner, which does the
// name work of every tag afresh: with and without a name table, in buffer
// and reader mode, with the bulk scanner and without it, and on a decoder
// that read another document first, the input must give the reference's
// tokens, resolved names, positions and error text. With a table, the
// symbol IDs must be the ones the reference asks the table for on every
// tag.
func FuzzNameMemo(f *testing.F) {
	var attrs strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&attrs, ` x%d="%d"`, i, i)
	}
	for _, s := range []string{
		// Prefixes rebound at depth, and restored on the way out.
		`<p:a xmlns:p="u1"><p:b p:c="1"/><c xmlns:p="u2"><p:b p:c="2"/><d><p:b/></d></c><p:b/><p:bb/><p:bb/></p:a>`,
		// xmlns="" undeclares the default namespace.
		`<a xmlns="u"><b/><c xmlns=""><b/><bb/><bb/></c><b xmlns="u"/><bb/></a>`,
		// One raw name, two namespaces, in sibling subtrees.
		`<r xmlns:p="u1"><s><p:xx/></s><s xmlns:p="u2"><p:xx/><p:xx/></s><s><p:xx/></s></r>`,
		// Two prefixes for one namespace; a duplicate through them.
		`<p:a xmlns:p="u" xmlns:q="u"><q:a p:b="1" q:bb="2"/><p:a p:b="1" q:b="2"/></p:a>`,
		// Redeclaring a binding that is already in scope changes nothing.
		`<a xmlns="u" xmlns:p="v"><bb xmlns="u"><p:cc xmlns:p="v"/></bb><bb/><p:cc/></a>`,
		// Errors: an unbound prefix after its binding is popped, bad names.
		`<a><b xmlns:p="u"><p:c/></b><p:c/></a>`,
		`<a xmlns:p="u"><p:b p:c="1"/><b p:c="1" xmlns:p="v"/><b p:c="1"/><q:b/></a>`,
		`<a><b:c:d/></a>`,
		`<a xmlns:p="u"><p:b/><p:/></a>`,
		// 4 KB names and 2,000 attributes, as in the hostile corpus.
		`<r><z` + strings.Repeat("a", 4095) + `/><z` + strings.Repeat("a", 4095) + `/></r>`,
		`<r` + attrs.String() + `><e` + attrs.String() + `/></r>`,
		`<r` + attrs.String() + ` x0="again"/>`,
		"<a>\n<b\n  c='1'\n/><bé ç='2'/><bé ç='3'/></a>",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		src := string(data)
		ref := readNames(new(Decoder), src, false, true, nil)
		refSyms := readNames(new(Decoder), src, false, true, newGrowingTable())
		if refSyms.err != ref.err || !reflect.DeepEqual(refSyms.toks, ref.toks) {
			t.Fatalf("the reference scanner reads differently with a table: %v / %v", refSyms.err, ref.err)
		}
		for _, reader := range []bool{false, true} {
			for _, noBulk := range []bool{false, true} {
				for _, withTable := range []bool{false, true} {
					for primer := -1; primer < len(nameMemoPrimers); primer++ {
						d := new(Decoder)
						if primer >= 0 {
							readNames(d, nameMemoPrimers[primer], reader, noBulk, constTable{})
							d.reset()
						}
						var tab NameTable
						if withTable {
							tab = newGrowingTable()
						}
						got := readNames(d, src, reader, noBulk, tab)
						mode := fmt.Sprintf("reader=%v noBulk=%v table=%v primer=%d", reader, noBulk, withTable, primer)
						if got.err != ref.err {
							t.Fatalf("%s: error %q, reference %q", mode, got.err, ref.err)
						}
						if !reflect.DeepEqual(got.toks, ref.toks) {
							t.Fatalf("%s: tokens differ from the reference's:\n  got: %#v\n  ref: %#v", mode, got.toks, ref.toks)
						}
						want := refSyms.syms
						if !withTable {
							want = make([]int32, len(got.syms))
							for i := range want {
								want[i] = -1
							}
						}
						if !slices.Equal(got.syms, want) {
							t.Fatalf("%s: symbol IDs %v, reference %v", mode, got.syms, want)
						}
					}
				}
			}
		}
	})
}

// TestNameMemoSymbols pins what FuzzNameMemo compares against: the IDs a
// table gives start tags, a miss followed by a hit for a name the table
// gains, none for end tags, and a resolution that follows a rebinding.
func TestNameMemoSymbols(t *testing.T) {
	const src = `<aa xmlns:p="u1"><p:bb/><p:bb/><c xmlns:p="u2"><p:bb/></c><p:bb/></aa>`
	got := readNames(new(Decoder), src, false, false, newGrowingTable())
	if got.err != "<nil>" {
		t.Fatal(got.err)
	}
	var starts []string
	var syms []int32
	for i, tok := range got.toks {
		if tok.Kind != KindStartElement {
			if got.syms[i] != -1 {
				t.Errorf("%v token %d carries symbol ID %d", tok.Kind, i, got.syms[i])
			}
			continue
		}
		starts = append(starts, tok.Name.String())
		syms = append(syms, got.syms[i])
	}
	wantStarts := []string{"aa", "{u1}bb", "{u1}bb", "c", "{u2}bb", "{u1}bb"}
	// aa and c miss (c, odd, for good); {u1}bb misses, then holds ID 0;
	// {u2}bb is new and misses; {u1}bb again holds 0.
	wantSyms := []int32{-1, -1, 0, -1, -1, 0}
	if !slices.Equal(starts, wantStarts) || !slices.Equal(syms, wantSyms) {
		t.Errorf("start tags %v with IDs %v, want %v with %v", starts, syms, wantStarts, wantSyms)
	}
}

// TestNameMemoSharesInternBound reads documents with more distinct names
// and values than the intern bound allows: the intern cache and the name
// memo together never hold more than maxInternEntries strings, and a
// decoder released full keeps neither.
func TestNameMemoSharesInternBound(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < maxInternEntries; i++ {
		fmt.Fprintf(&sb, `<e%d a%d="v%d">t%d</e%d>`, i, i, i, i, i)
	}
	sb.WriteString("</r>")
	for _, src := range []string{sb.String(), strings.ReplaceAll(sb.String(), ">t", "><x/>t")} {
		d := new(Decoder)
		d.start(nil, []byte(src), &Options{Namespaces: true})
		var tok Token
		for {
			err := d.Next(&tok)
			if err != nil {
				break
			}
			if tok.Kind == KindText {
				tok.Data()
			}
			if n := d.cached(); n > maxInternEntries {
				t.Fatalf("intern cache and name memo hold %d strings, more than %d", n, maxInternEntries)
			}
		}
		if len(d.names) == 0 || len(d.interned) == 0 {
			t.Fatalf("names %d, interned %d: the document should fill both", len(d.names), len(d.interned))
		}
		d.reset()
		if d.cached() != 0 {
			t.Errorf("a full decoder keeps %d strings after reset", d.cached())
		}
	}
}
