package dom

import "testing"

// TestReleaseIdempotent guards the double-release contract: releasing a
// pooled document twice must be a no-op the second time, never a second
// round of sync.Pool Puts. A double Put would hand one slab to two
// documents at once — the next two NewPooledDocument parses would silently
// share node storage. Server error paths (defer Release + eager Release on
// the success path) make this an easy call pattern to hit.
func TestReleaseIdempotent(t *testing.T) {
	d := NewPooledDocument()
	root := d.CreateElementNS("", "root")
	root.SetAttributeNS("", "id", "r1")
	root.AppendChild(d.CreateTextNode("payload"))
	d.AppendChild(root)

	d.Release()
	if d.arena != nil {
		t.Fatal("arena still attached after Release")
	}
	// The regression: before the detach-first ordering, a second Release on
	// a partially-torn-down document could re-Put slabs. Now it must be a
	// pure no-op.
	d.Release()
	d.Release()

	// Fresh pooled documents after the double release must hand out
	// distinct node storage: build two side by side and check their nodes
	// do not alias.
	a, b := NewPooledDocument(), NewPooledDocument()
	ea := a.CreateElementNS("", "a")
	eb := b.CreateElementNS("", "b")
	if ea == eb {
		t.Fatal("two live pooled documents share an element slot — slab aliased by double release")
	}
	ea.SetAttributeNS("", "k", "va")
	eb.SetAttributeNS("", "k", "vb")
	if got := ea.GetAttributeNS("", "k"); got != "va" {
		t.Fatalf("document A's attribute clobbered to %q by document B", got)
	}
	a.Release()
	b.Release()
}

// TestReleaseOnUnpooledDocument checks Release is safe on documents that
// never had an arena (NewDocument, CloneNode results): the optional-call
// contract must not require callers to know how a document was built.
func TestReleaseOnUnpooledDocument(t *testing.T) {
	d := NewDocument()
	d.AppendChild(d.CreateElement("root"))
	d.Release()
	d.Release()
	if d.DocumentElement() == nil {
		t.Fatal("Release on an unpooled document must not tear it down")
	}
}

// TestReleaseClearsListSlabs checks that the slabs a parsed tree's child
// and attribute lists were carved from go back to the pool holding no
// node: Release zeroes every entry it handed out.
func TestReleaseClearsListSlabs(t *testing.T) {
	for _, src := range linkedDocs {
		d := mustParse(t, src)
		children := append([]*[slabSize]Node(nil), d.arena.children.slabs...)
		attrs := append([]*[slabSize]*Attr(nil), d.arena.attrLists.slabs...)
		// Lists a caller shortened keep stale entries past their length.
		if r := d.DocumentElement(); r.HasChildNodes() {
			if len(children) == 0 {
				t.Fatalf("%.40q: no child list came from a slab", src)
			}
			r.RemoveChild(r.LastChild())
		}
		d.Release()
		for _, s := range children {
			for i, n := range s {
				if n != nil {
					t.Fatalf("%.40q: released child slab keeps %s at %d", src, n.NodeName(), i)
				}
			}
		}
		for _, s := range attrs {
			for i, a := range s {
				if a != nil {
					t.Fatalf("%.40q: released attribute slab keeps %s at %d", src, a.NodeName(), i)
				}
			}
		}
	}
}
