package registry

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/schemas"
)

func mustParse(t *testing.T, src string) *dom.Document {
	t.Helper()
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// poV2 is the purchase-order schema with an optional <priority> tacked on
// the end of PurchaseOrderType — a backward-compatible evolution, so the
// paper's Figure 1 document is valid under both versions. That is exactly
// the property the hot-swap test needs: whichever version a request
// lands on, validation must succeed.
var poV2 = strings.Replace(schemas.PurchaseOrderXSD,
	`<xsd:element name="items" type="Items"/>`,
	`<xsd:element name="items" type="Items"/>
      <xsd:element name="priority" type="xsd:string" minOccurs="0"/>`, 1)

// writeSchema writes content and forces a distinct mtime so change
// detection never depends on filesystem timestamp granularity.
func writeSchema(t *testing.T, path, content string, stamp time.Time) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, stamp, stamp); err != nil {
		t.Fatal(err)
	}
}

func TestReloadBasics(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	poPath := filepath.Join(dir, "po.xsd")
	writeSchema(t, poPath, schemas.PurchaseOrderXSD, base)
	writeSchema(t, filepath.Join(dir, "broken.xsd"), "<xsd:schema", base)
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := New(dir, nil)
	if _, ok := r.Get("po"); ok {
		t.Fatal("registry serves entries before the first Reload")
	}
	changed, err := r.Reload()
	if err == nil {
		t.Fatal("broken.xsd did not surface a load error")
	}
	if changed != 1 {
		t.Fatalf("changed = %d, want 1 (po loaded, broken failed, txt ignored)", changed)
	}
	e, ok := r.Get("po")
	if !ok || e.Version != 1 {
		t.Fatalf("po entry = %+v, ok=%v", e, ok)
	}
	if res := e.Validator.ValidateDocument(mustParse(t, schemas.PurchaseOrderDoc)); !res.OK() {
		t.Fatalf("paper document invalid under loaded schema: %v", res.Err())
	}
	if msg := r.Errors()["broken"]; msg == "" {
		t.Error("broken.xsd missing from Errors()")
	}
	if _, ok := r.Get("broken"); ok {
		t.Error("never-good schema must not serve")
	}
	if _, ok := r.Get("notes"); ok {
		t.Error("non-.xsd file leaked into the registry")
	}

	// No-op reload: same entry pointer, so the compiled content models
	// survive and no version churn happens.
	if _, err := r.Reload(); err == nil {
		t.Fatal("broken.xsd error must persist across reloads")
	}
	if e2, _ := r.Get("po"); e2 != e {
		t.Error("unchanged file was recompiled on reload (entry pointer changed)")
	}

	// Content change: new entry, bumped version.
	writeSchema(t, poPath, poV2, base.Add(time.Second))
	if _, err := r.Reload(); err == nil {
		t.Fatal("expected broken.xsd error again")
	}
	e3, _ := r.Get("po")
	if e3 == e || e3.Version != 2 {
		t.Fatalf("after rewrite: entry %p version %d, want new entry at version 2", e3, e3.Version)
	}

	// Removal: the name stops serving.
	if err := os.Remove(poPath); err != nil {
		t.Fatal(err)
	}
	r.Reload() //nolint:errcheck
	if _, ok := r.Get("po"); ok {
		t.Error("removed schema still serving")
	}
}

func TestBrokenRewriteKeepsServingStale(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	poPath := filepath.Join(dir, "po.xsd")
	writeSchema(t, poPath, schemas.PurchaseOrderXSD, base)

	r := New(dir, nil)
	if _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	good, _ := r.Get("po")

	// A bad intermediate write (e.g. a non-atomic editor save) must not
	// take the schema out of service.
	writeSchema(t, poPath, "not xml at all", base.Add(time.Second))
	if _, err := r.Reload(); err == nil {
		t.Fatal("broken rewrite did not report an error")
	}
	stale, ok := r.Get("po")
	if !ok || stale != good {
		t.Fatalf("stale entry not served: ok=%v entry=%p want %p", ok, stale, good)
	}
	if r.Errors()["po"] == "" {
		t.Error("load error not surfaced while serving stale")
	}

	// Recovery: version continues from the good sequence.
	writeSchema(t, poPath, poV2, base.Add(2*time.Second))
	if _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	fixed, _ := r.Get("po")
	if fixed.Version != 2 {
		t.Errorf("recovered version = %d, want 2", fixed.Version)
	}
	if len(r.Errors()) != 0 {
		t.Errorf("errors not cleared after recovery: %v", r.Errors())
	}
}

// TestHotSwapUnderLoad is the serving-layer race test: goroutines
// validate continuously (DOM and streaming paths) while the schema file
// is rewritten and reloaded under them. Every validation must succeed —
// an in-flight request drains on whichever version it resolved — and the
// readers must observe the version advancing. Run under -race this also
// proves the snapshot swap publishes safely.
func TestHotSwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	base := time.Now().Add(-time.Hour)
	poPath := filepath.Join(dir, "po.xsd")
	writeSchema(t, poPath, schemas.PurchaseOrderXSD, base)

	r := New(dir, nil)
	if _, err := r.Reload(); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	var (
		stop     atomic.Bool
		failures atomic.Int64
		runs     atomic.Int64
		maxSeen  atomic.Int64
		wg       sync.WaitGroup
	)
	doc := []byte(schemas.PurchaseOrderDoc)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				e, ok := r.Get("po")
				if !ok {
					failures.Add(1)
					continue
				}
				for {
					v := maxSeen.Load()
					if int64(e.Version) <= v || maxSeen.CompareAndSwap(v, int64(e.Version)) {
						break
					}
				}
				// Torn-read check: the entry must be internally
				// consistent even if a swap happens mid-request.
				if e.Schema == nil || e.Validator == nil || e.Stream == nil {
					failures.Add(1)
					continue
				}
				d, perr := dom.ParseString(schemas.PurchaseOrderDoc)
				if perr != nil {
					failures.Add(1)
					continue
				}
				if res := e.Validator.ValidateDocument(d); !res.OK() {
					failures.Add(1)
				}
				d.Release()
				if res := e.Stream.ValidateBytes(doc); !res.OK() {
					failures.Add(1)
				}
				runs.Add(2)
			}
		}()
	}

	const swaps = 20
	content := [2]string{poV2, schemas.PurchaseOrderXSD}
	for i := 0; i < swaps; i++ {
		writeSchema(t, poPath, content[i%2], base.Add(time.Duration(i+1)*time.Second))
		if _, err := r.Reload(); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond) // let readers land on this version
	}
	stop.Store(true)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed validations during hot swap (of %d runs)", n, runs.Load())
	}
	if runs.Load() == 0 {
		t.Fatal("load generator never ran")
	}
	e, _ := r.Get("po")
	if e.Version != swaps+1 {
		t.Errorf("final version = %d, want %d (every rewrite detected)", e.Version, swaps+1)
	}
	if maxSeen.Load() < 2 {
		t.Errorf("readers only ever saw version %d — swap not observed under load", maxSeen.Load())
	}
	if got := r.Generation(); got != swaps+1 {
		t.Errorf("generation = %d, want %d", got, swaps+1)
	}
}
