package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/schemas"
)

// TestParseDocCacheSharesIdenticalContent: the per-reload DOM cache
// returns the SAME document for the same bytes — that is the whole
// mechanism behind cross-entry sharing of identical imported
// compilations (fifty dependents of one library parse it once).
func TestParseDocCacheSharesIdenticalContent(t *testing.T) {
	cache := newReloadCache()
	d1, err := cache.parseDoc([]byte(sharedLib))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cache.parseDoc([]byte(sharedLib))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("identical content parsed twice; cache returned distinct documents")
	}
	d3, err := cache.parseDoc([]byte(schemas.PurchaseOrderXSD))
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("different content returned the same document")
	}
}

// TestSharedParseEquivalence: sharing parsed DOMs across the reload's
// compile workers must be invisible — every entry compiles, and each
// importer keeps its own form defaults over the shared library.
func TestSharedParseEquivalence(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	if err := os.MkdirAll(filepath.Join(dir, "lib"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeSchema(t, filepath.Join(dir, "lib", "common.xsd"), sharedLib, base)
	const n = 20
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("imp%02d", i)
		writeSchema(t, filepath.Join(dir, name+".xsd"), importerOf("urn:"+name, "doc", ""), base)
	}
	writeSchema(t, filepath.Join(dir, "po.xsd"), schemas.PurchaseOrderXSD, base)

	reg := New(dir, nil)
	if _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if len(reg.List()) != n+1 {
		t.Fatalf("entry count = %d, want %d", len(reg.List()), n+1)
	}
	e, ok := reg.Get("po")
	if !ok {
		t.Fatal("po missing")
	}
	if res := e.Validator.ValidateDocument(mustParse(t, schemas.PurchaseOrderDoc)); !res.OK() {
		t.Fatalf("po document invalid: %v", res.Violations)
	}
	// meta is qualified (importer's elementFormDefault); id comes from the
	// shared library, whose locals are unqualified.
	doc := mustParse(t, `<q:doc xmlns:q="urn:imp07"><q:meta><id>x</id></q:meta></q:doc>`)
	e, ok = reg.Get("imp07")
	if !ok {
		t.Fatal("imp07 missing")
	}
	if res := e.Validator.ValidateDocument(doc); !res.OK() {
		t.Fatalf("importer document invalid: %v", res.Violations)
	}
}

// TestGenerationIdentifiesContentState: no-op reloads republish the
// same generation; only content changes advance it. This is what lets
// a fleet converge on one number instead of drifting one generation
// apart per poll tick.
func TestGenerationIdentifiesContentState(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	writeSchema(t, filepath.Join(dir, "po.xsd"), schemas.PurchaseOrderXSD, base)

	r := New(dir, nil)
	if _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if r.Generation() != 1 {
		t.Fatalf("generation after initial load = %d, want 1", r.Generation())
	}
	fp1 := r.Fingerprint()
	for i := 0; i < 3; i++ {
		if _, err := r.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	if r.Generation() != 1 {
		t.Fatalf("generation after no-op reloads = %d, want 1", r.Generation())
	}
	if r.Fingerprint() != fp1 {
		t.Fatal("fingerprint moved across no-op reloads")
	}

	writeSchema(t, filepath.Join(dir, "po.xsd"), poV2, base.Add(time.Minute))
	if _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if r.Generation() != 2 {
		t.Fatalf("generation after content change = %d, want 2", r.Generation())
	}
	if r.Fingerprint() == fp1 {
		t.Fatal("fingerprint unchanged across a content change")
	}

	// A reload that newly FAILS is a state change too (the error set
	// shifted), even though the stale entry keeps serving.
	writeSchema(t, filepath.Join(dir, "po.xsd"), "<broken", base.Add(2*time.Minute))
	if _, err := r.Reload(); err == nil {
		t.Fatal("reload of a broken schema reported no error")
	}
	if r.Generation() != 3 {
		t.Fatalf("generation after error-state change = %d, want 3", r.Generation())
	}
	gen := r.Generation()
	if _, err := r.Reload(); err == nil {
		t.Fatal("re-reload of a broken schema reported no error")
	}
	if r.Generation() != gen {
		t.Fatalf("generation moved (%d -> %d) while the error state was unchanged", gen, r.Generation())
	}
}

// TestFingerprintConvergesAcrossNodes: two registries over one schema
// directory report the same fingerprint once both have observed the
// same file states — regardless of how many reloads each has run.
// Fleet convergence is exactly this property plus gossip.
func TestFingerprintConvergesAcrossNodes(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	writeSchema(t, filepath.Join(dir, "po.xsd"), schemas.PurchaseOrderXSD, base)

	a, b := New(dir, nil), New(dir, nil)
	if _, err := a.Reload(); err != nil {
		t.Fatal(err)
	}
	// b reloads three times to a's one; their generations may differ,
	// their fingerprints must not.
	for i := 0; i < 3; i++ {
		if _, err := b.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same dir, different fingerprints: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}

	writeSchema(t, filepath.Join(dir, "po.xsd"), poV2, base.Add(time.Minute))
	if _, err := a.Reload(); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("a observed the change but still matches b")
	}
	if _, err := b.Reload(); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("both observed the change but fingerprints differ")
	}
}
