package validator

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// releaseXSD exercises every stack of the machine: IDs, undeclared and
// plain attributes, text, two child names per level, and on <r> an
// identity constraint, whose tracker keeps every level's name and every
// <s> text it selects.
const releaseXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="n" type="N"/>
  <xsd:element name="r">
    <xsd:complexType>
      <xsd:sequence><xsd:element ref="n"/></xsd:sequence>
    </xsd:complexType>
    <xsd:unique name="u">
      <xsd:selector xpath=".//s"/>
      <xsd:field xpath="."/>
    </xsd:unique>
  </xsd:element>
  <xsd:complexType name="N">
    <xsd:sequence>
      <xsd:element ref="n" minOccurs="0"/>
      <xsd:element name="s" type="xsd:string" minOccurs="0"/>
    </xsd:sequence>
    <xsd:attribute name="id" type="xsd:ID"/>
    <xsd:attribute name="ref" type="xsd:IDREF"/>
  </xsd:complexType>
</xsd:schema>`

// releaseDoc nests depth <n> elements, each with an ID, a dangling IDREF
// and an undeclared attribute, and each but the outermost followed by an
// <s> that carries a plain attribute; wrapped in <r> when keyed.
func releaseDoc(depth int, keyed bool) []byte {
	var sb strings.Builder
	if keyed {
		sb.WriteString("<r>")
	}
	for i := range depth {
		fmt.Fprintf(&sb, `<n id="i%d" ref="x%d" bad="%d">`, i, i, i)
	}
	for i := depth - 1; i >= 0; i-- {
		sb.WriteString("</n>")
		if i > 0 { // the second child of level i-1
			fmt.Fprintf(&sb, `<s a="%d">text %d</s>`, i, i)
		}
	}
	if keyed {
		sb.WriteString("</r>")
	}
	return []byte(sb.String())
}

// TestMachineReleaseDropsLargeBuffers is the validation machine's twin of
// the decoder's TestReleaseDropsLargeBuffers: after a 3,000-deep run, the
// machine the pool would keep holds at most poolLimit frames, and neither
// after it nor after a shallow run does it hold a string or node of the
// document in its frames or in any stack, up to their capacities.
func TestMachineReleaseDropsLargeBuffers(t *testing.T) {
	s, err := xsd.ParseString(releaseXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(s, nil)
	for _, depth := range []int{3000, 50} {
		for _, keyed := range []bool{false, true} {
			src := releaseDoc(depth, keyed)
			for _, tree := range []bool{false, true} {
				name := fmt.Sprintf("depth %d, keyed %v, tree %v", depth, keyed, tree)
				sr := newMachine(v, attrRecorder{})
				var res *Result
				if tree {
					doc, err := dom.Parse(src)
					if err != nil {
						t.Fatal(err)
					}
					sr.tree = newTreeSource(doc.DocumentElement())
					res, _ = sr.consume(context.Background(), sr.tree)
					doc.Release()
				} else {
					d := xmlparser.NewDecoder(src, &v.names)
					sr.symIDs = true
					res, _ = sr.consume(context.Background(), d)
					d.Release()
				}
				if len(res.Violations) != maxViolations {
					t.Fatalf("%s: %d violations, want the cap", name, len(res.Violations))
				}
				if sr.used < depth {
					t.Fatalf("%s: the run wrote %d frames", name, sr.used)
				}
				sr.reset()
				checkCleared(t, name, sr)
			}
		}
	}
}

// checkCleared reports anything of a document a reset machine still holds.
func checkCleared(t *testing.T, name string, sr *streamRun) {
	t.Helper()
	if n := len(sr.chunks) * frameChunk; n > poolLimit {
		t.Errorf("%s: kept %d frames, limit %d", name, n, poolLimit)
	}
	for c := range sr.chunks {
		for i := range sr.chunks[c] {
			f := &sr.chunks[c][i]
			run := f.run
			run.Forget()
			if *f != (frame{run: f.run}) || run != f.run {
				t.Errorf("%s: frame %d keeps %+v", name, c*frameChunk+i, *f)
				return
			}
		}
	}
	zero := func(what string, n int, isZero func(i int) bool) {
		for i := range n {
			if !isZero(i) {
				t.Errorf("%s: %s[%d] is kept", name, what, i)
				return
			}
		}
	}
	zero("own", cap(sr.own), func(i int) bool { return sr.own[:cap(sr.own)][i] == violation{} })
	zero("kids", cap(sr.kids), func(i int) bool { return sr.kids[:cap(sr.kids)][i] == violation{} })
	zero("counts", cap(sr.counts), func(i int) bool { return sr.counts[:cap(sr.counts)][i] == childCount{} })
	zero("plain", cap(sr.plain), func(i int) bool { return sr.plain[:cap(sr.plain)][i] == "" })
	k := &sr.keys
	zero("keys.elems", cap(k.elems), func(i int) bool { return k.elems[:cap(k.elems)][i] == idElem{} })
	for _, g := range k.groups[:cap(k.groups)] {
		zero("keys.groups.picks", cap(g.picks), func(i int) bool { return g.picks[:cap(g.picks)][i] == idPick{} })
		zero("keys.groups.fields", cap(g.fields), func(i int) bool { return g.fields[:cap(g.fields)][i] == idField{} })
		if g.decl != nil || len(g.picks)+len(g.fields) != 0 {
			t.Errorf("%s: identity tracker keeps a group of %v", name, g.decl)
		}
	}
	zero("keys.parts", cap(k.parts), func(i int) bool { return k.parts[:cap(k.parts)][i] == "" })
	if len(k.scopes)+len(k.groups)+len(k.open)+len(k.wants)+len(k.order)+len(k.tables) != 0 || len(k.text) != 0 || k.pre != 0 {
		t.Errorf("%s: identity tracker keeps %+v", name, *k)
	}
	zero("idJournal", cap(sr.idJournal), func(i int) bool { return sr.idJournal[:cap(sr.idJournal)][i] == "" })
	zero("idrefs", cap(sr.idrefs), func(i int) bool { return sr.idrefs[:cap(sr.idrefs)][i] == pendingRef{} })
	zero("attrSeen", cap(sr.attrSeen), func(i int) bool { return sr.attrSeen[:cap(sr.attrSeen)][i] == xsd.QName{} })
	zero("evAttrs", cap(sr.evAttrs), func(i int) bool {
		a := sr.evAttrs[:cap(sr.evAttrs)][i]
		return a.Name == xsd.QName{} && a.Value == "" && !a.Typed
	})
	if len(sr.ids) != 0 || sr.text != "" || sr.tree != nil || cap(sr.textBuf) > poolText {
		t.Errorf("%s: kept %d IDs, text %q, tree %v, text buffer %d", name, len(sr.ids), sr.text, sr.tree != nil, cap(sr.textBuf))
	}
}
