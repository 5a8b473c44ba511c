package registry

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bind"
	"repro/internal/compat"
	"repro/internal/dom"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// FileStat records one document of an entry's dependency closure with
// the file state it was compiled from.
type FileStat struct {
	Path    string
	ModTime time.Time
	Size    int64
}

// Entry is one named, versioned, compiled schema. Entries are immutable
// after publication: a reload that changes a schema publishes a new Entry
// rather than mutating the old one, so a request that resolved an Entry
// keeps a consistent (schema, validator, version) triple for its whole
// lifetime no matter how many swaps happen meanwhile.
type Entry struct {
	// Name is the registry key: the schema file's base name without the
	// .xsd extension ("po.xsd" serves as "po").
	Name string
	// Version starts at 1 and increments every time the entry's file
	// closure is observed to have changed. It survives transient load
	// errors (a bad intermediate write does not reset the sequence).
	Version int
	// Path, ModTime and Size identify the root file state this entry was
	// compiled from.
	Path    string
	ModTime time.Time
	Size    int64
	// Files is the dependency closure the entry was compiled from — the
	// root document first, then every included/imported/redefined file in
	// load order, each with the state observed at compile time. A change
	// to ANY of these invalidates the entry on the next reload; an
	// unchanged closure keeps the entry (and its warm compiled-model
	// caches) across reloads.
	Files []FileStat
	// Compat classifies this version against the previous served version
	// of the same name (nil for version 1).
	Compat *compat.Report
	// LoadedAt is when this version was compiled.
	LoadedAt time.Time

	Schema    *xsd.Schema
	Validator *validator.Validator
	Stream    *validator.StreamValidator
	// Binder decodes documents against this schema version into typed
	// values / canonical JSON and marshals them back. It shares Validator
	// (and therefore its warm compiled-model cache), and is immutable like
	// the rest of the entry.
	Binder *bind.Binder
}

// GateError reports a recompiled schema rejected by the registry's
// compatibility gate; the previous version keeps serving.
type GateError struct {
	Name   string
	Gate   compat.Level
	Report *compat.Report
}

// Error summarizes the violated gate with the first break reasons.
func (e *GateError) Error() string {
	breaks := e.Report.BackwardBreaks
	if e.Gate == compat.Forward {
		breaks = e.Report.ForwardBreaks
	}
	msg := fmt.Sprintf("compatibility gate: new version classified %q, gate requires %q",
		e.Report.Level, e.Gate)
	if len(breaks) > 0 {
		n := len(breaks)
		if n > 3 {
			breaks = breaks[:3]
		}
		msg += ": " + strings.Join(breaks, "; ")
		if n > 3 {
			msg += fmt.Sprintf("; and %d more", n-3)
		}
	}
	return msg
}

// snapshot is one immutable registry state. Readers load it with a single
// atomic pointer read; Reload builds a fresh one aside and publishes it
// with a single atomic store, so there is no state a reader can observe
// half-swapped.
type snapshot struct {
	gen     int64
	entries map[string]*Entry
	names   []string          // sorted keys of entries
	errs    map[string]string // name -> last load error (entry may still serve stale)
	// fingerprint identifies the published content state: a hash over
	// every entry's file closure (paths, sizes, mtimes) and the pending
	// load errors. Two nodes serving the same schema directory publish
	// the same fingerprint, which is what cluster gossip compares to
	// decide whether the fleet has converged.
	fingerprint string
}

var emptySnapshot = &snapshot{entries: map[string]*Entry{}, errs: map[string]string{}}

// Registry serves named schemas loaded from one directory tree and
// hot-swaps them when files change. Every top-level *.xsd file is an
// entry; the documents it reaches through xs:include / xs:import /
// xs:redefine may live anywhere under the same directory (subdirectories
// are not scanned for entries, so a conventional lib/ or common/ folder
// holds shared parts without serving them as schemas of their own).
// Get/List/Errors are wait-free snapshot reads; Reload is serialized by a
// mutex and publishes atomically.
//
// Old versions are drained, not torn down: an Entry stays alive for as
// long as any in-flight request references it, and its Validator's
// compiled-model cache goes away only when the garbage collector proves
// nobody can use it again. A schema file that fails to parse keeps its
// previous good version serving and surfaces the error via Errors.
type Registry struct {
	dir   string
	vopts *validator.Options

	mu  sync.Mutex // serializes Reload
	cur atomic.Pointer[snapshot]

	// Gate, when set before the first Reload/Watch call, rejects any
	// recompiled schema whose compatibility classification against the
	// previous version does not satisfy the level: the old version keeps
	// serving and the violation surfaces through Errors (as a *GateError)
	// and OnCompat. The zero value (compat.None) accepts everything and
	// only records reports.
	Gate compat.Level

	// OnReload, when set before the first Reload/Watch call, observes
	// every reload attempt (generation, number of changed entries, and
	// the aggregated load error, nil when clean). The server uses it for
	// structured logging and reload metrics.
	OnReload func(gen int64, changed int, err error)

	// OnCompat, when set before the first Reload/Watch call, observes
	// every compatibility classification a reload produces (one per
	// recompiled schema that had a previous good version), with gated
	// reporting whether the gate rejected the new version.
	OnCompat func(name string, report *compat.Report, gated bool)
}

// New creates a registry over dir. The validator options are applied to
// every compiled schema (nil selects the defaults). The registry starts
// empty; call Reload to perform the initial load.
func New(dir string, vopts *validator.Options) *Registry {
	r := &Registry{dir: dir, vopts: vopts}
	r.cur.Store(emptySnapshot)
	return r
}

// Dir returns the directory the registry loads from.
func (r *Registry) Dir() string { return r.dir }

// Get returns the current entry for name. The returned entry remains
// valid (and its validator usable) even if a reload replaces it while the
// caller is still validating — that is the drain guarantee.
func (r *Registry) Get(name string) (*Entry, bool) {
	e, ok := r.cur.Load().entries[name]
	return e, ok
}

// List returns the current entries sorted by name.
func (r *Registry) List() []*Entry {
	s := r.cur.Load()
	out := make([]*Entry, 0, len(s.names))
	for _, n := range s.names {
		out = append(out, s.entries[n])
	}
	return out
}

// Errors returns the last load error per schema name, for names whose
// most recent file state failed to parse or compile. A name present here
// may still be served from its previous good version.
func (r *Registry) Errors() map[string]string {
	s := r.cur.Load()
	out := make(map[string]string, len(s.errs))
	for k, v := range s.errs {
		out[k] = v
	}
	return out
}

// Generation returns the published snapshot's generation, which
// increments on every Reload that changed what is served (entries
// added, replaced or removed, or the pending-error set shifting). A
// no-op reload republishes the same generation, so the number
// identifies a content state: one node SIGHUPed into picking up a new
// schema version moves one generation ahead of its peers, and the
// cluster's gossip loop pulls the others forward until the fleet
// reports the same generation again. Tests use it to await a swap.
func (r *Registry) Generation() int64 { return r.cur.Load().gen }

// Fingerprint returns a hash identifying the published content state:
// every entry's dependency closure (canonical paths, sizes, mtimes)
// plus the pending load errors. Two registries over the same schema
// directory that have observed the same file states report the same
// fingerprint regardless of how many reloads each has run, which makes
// it the cluster's convergence check (generations say how far a node
// has moved; fingerprints say whether two nodes serve the same thing).
func (r *Registry) Fingerprint() string { return r.cur.Load().fingerprint }

// reloadCache deduplicates filesystem work within one Reload: every file
// is statted at most once (change detection over closures shares
// dependencies), read at most once (many schemas importing one common
// file cost one read, not one per dependent), and parsed to a DOM at
// most once per distinct content (the parse cache is keyed by a content
// hash, so the same bytes reached through different paths — or by fifty
// dependents of one shared library — cost one dom.Parse per reload).
// The cache dies with the reload pass; nothing is shared across reloads.
type reloadCache struct {
	mu    sync.Mutex
	stats map[string]statResult
	reads map[string]readResult
	doms  map[[sha256.Size]byte]domResult
}

type domResult struct {
	doc *dom.Document
	err error
}

// parseDoc is installed as ParseOptions.ParseDoc for every schema
// compiled in this reload pass. Cached documents are shared between the
// parallel compile workers; that is safe because the xsd parser treats
// schema DOMs as read-only and never Releases them (each parser keeps
// its own component maps keyed by element pointer).
func (c *reloadCache) parseDoc(src []byte) (*dom.Document, error) {
	key := sha256.Sum256(src)
	c.mu.Lock()
	if r, ok := c.doms[key]; ok {
		c.mu.Unlock()
		return r.doc, r.err
	}
	c.mu.Unlock()
	// Parse outside the lock: one slow parse must not serialize the
	// whole compile pool. A racing duplicate parse of the same content
	// is harmless — last write wins, both documents are valid.
	doc, err := dom.Parse(src)
	c.mu.Lock()
	c.doms[key] = domResult{doc, err}
	c.mu.Unlock()
	return doc, err
}

type statResult struct {
	mod  time.Time
	size int64
	err  error
}

type readResult struct {
	src []byte
	err error
}

func newReloadCache() *reloadCache {
	return &reloadCache{
		stats: map[string]statResult{},
		reads: map[string]readResult{},
		doms:  map[[sha256.Size]byte]domResult{},
	}
}

func (c *reloadCache) stat(path string) (time.Time, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.stats[path]; ok {
		return s.mod, s.size, s.err
	}
	var s statResult
	if info, err := os.Stat(path); err != nil {
		s.err = err
	} else {
		s.mod, s.size = info.ModTime(), info.Size()
	}
	c.stats[path] = s
	return s.mod, s.size, s.err
}

// readFile is installed as the DirResolver's ReadFile hook; it also
// captures the stat so closure stamps reflect the state that was read.
func (c *reloadCache) readFile(path string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.reads[path]; ok {
		return r.src, r.err
	}
	var s statResult
	if info, err := os.Stat(path); err != nil {
		s.err = err
	} else {
		s.mod, s.size = info.ModTime(), info.Size()
	}
	if _, ok := c.stats[path]; !ok {
		c.stats[path] = s
	}
	var r readResult
	if s.err != nil {
		r.err = s.err
	} else {
		r.src, r.err = os.ReadFile(path)
	}
	c.reads[path] = r
	return r.src, r.err
}

// changedSince reports whether any file in the entry's compile-time
// closure differs from its recorded state (or can no longer be statted).
func changedSince(prev *Entry, cache *reloadCache) bool {
	if len(prev.Files) == 0 {
		return true // pre-closure entry: always recompile
	}
	for _, fs := range prev.Files {
		mod, size, err := cache.stat(fs.Path)
		if err != nil || !mod.Equal(fs.ModTime) || size != fs.Size {
			return true
		}
	}
	return false
}

// Reload rescans the directory and atomically publishes a new snapshot.
// Entries whose whole dependency closure is unchanged (same ModTime and
// Size for every file) keep their existing Entry — same Validator, same
// warm compiled-model cache — while a change to any imported or included
// file recompiles exactly the dependents whose closure contains it.
// Changed schemas are parsed and compiled aside, in parallel, before the
// swap, so readers never see a partially-loaded state; a shared per-reload
// cache stats and reads every file at most once no matter how many
// schemas import it. Recompiled schemas that had a previous version are
// classified against it (Entry.Compat) and, when Gate is set, rejected if
// the classification does not satisfy it. The returned count is the
// number of entries added, replaced or removed; the error aggregates
// per-file failures (which do not prevent the other files from loading).
func (r *Registry) Reload() (changed int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	old := r.cur.Load()
	next := &snapshot{
		gen:     old.gen + 1,
		entries: make(map[string]*Entry, len(old.entries)),
		errs:    map[string]string{},
	}

	dirents, derr := os.ReadDir(r.dir)
	if derr != nil {
		// Directory unreadable: keep serving the old set, bump nothing.
		if r.OnReload != nil {
			r.OnReload(old.gen, 0, derr)
		}
		return 0, derr
	}

	cache := newReloadCache()
	type work struct {
		key, path string
		prev      *Entry
	}
	var pending []work
	seen := map[string]bool{}
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".xsd") {
			continue
		}
		key := strings.TrimSuffix(name, ".xsd")
		seen[key] = true
		path := filepath.Join(r.dir, name)
		if prev := old.entries[key]; prev != nil && !changedSince(prev, cache) {
			next.entries[key] = prev // unchanged closure: keep the warm validator
			continue
		}
		pending = append(pending, work{key, path, old.entries[key]})
	}

	// Compile every changed schema aside, in parallel. Parsing dominates
	// cold-start cost; the pool is bounded so a 1000-schema start does not
	// spawn 1000 goroutines fighting over the allocator.
	type result struct {
		entry *Entry
		err   error
	}
	results := make([]result, len(pending))
	var catalog map[string]string
	if len(pending) > 0 {
		// One namespace catalog per reload: schemaLocation-less xs:import
		// resolves to the directory's document declaring that namespace.
		// Catalog reads go through the same per-reload cache, so the scan
		// costs nothing extra for files a compile would read anyway.
		catalog, _ = xsd.BuildCatalog(r.dir, cache.readFile) //nolint:errcheck // an unreadable tree fails per-schema below
	}
	if len(pending) > 0 {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(pending) {
			workers = len(pending)
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := range pending {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				e, lerr := r.load(pending[i].key, pending[i].path, pending[i].prev, cache, catalog)
				results[i] = result{e, lerr}
			}(i)
		}
		wg.Wait()
	}

	var errs []error
	for i, w := range pending {
		entry, lerr := results[i].entry, results[i].err
		if lerr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.key, lerr))
			r.keepStale(old, next, w.key, lerr)
			var ge *GateError
			if errors.As(lerr, &ge) && r.OnCompat != nil {
				r.OnCompat(w.key, ge.Report, true)
			}
			continue
		}
		next.entries[w.key] = entry
		changed++
		if entry.Compat != nil && r.OnCompat != nil {
			r.OnCompat(w.key, entry.Compat, false)
		}
	}
	for key := range old.entries {
		if !seen[key] {
			changed++ // removed from disk: removed from serving
		}
	}

	next.names = make([]string, 0, len(next.entries))
	for k := range next.entries {
		next.names = append(next.names, k)
	}
	sort.Strings(next.names)
	next.fingerprint = fingerprint(next)

	// A reload that changed nothing — same entries, same pending errors —
	// republishes the old generation: the generation identifies a content
	// state, not a reload count, so a fleet of nodes polling the same
	// unchanged directory stays on one number instead of drifting apart.
	if changed == 0 && sameErrors(old.errs, next.errs) {
		next.gen = old.gen
	}

	r.cur.Store(next)
	err = errors.Join(errs...)
	if r.OnReload != nil {
		r.OnReload(next.gen, changed, err)
	}
	return changed, err
}

// sameErrors reports whether two pending-error maps are equal.
func sameErrors(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// fingerprint hashes the snapshot's content identity: every entry's file
// closure state plus the pending errors, in sorted order. Versions and
// generations are deliberately excluded — they count a node's own
// observations, so they differ between a node booted yesterday and one
// booted this morning even when both serve identical bytes.
func fingerprint(s *snapshot) string {
	h := fnv.New64a()
	for _, name := range s.names {
		e := s.entries[name]
		h.Write([]byte(name)) //nolint:errcheck // fnv never fails
		h.Write([]byte{0})    //nolint:errcheck
		for _, fs := range e.Files {
			h.Write([]byte(fs.Path))                                      //nolint:errcheck
			h.Write([]byte(strconv.FormatInt(fs.Size, 10)))               //nolint:errcheck
			h.Write([]byte(strconv.FormatInt(fs.ModTime.UnixNano(), 10))) //nolint:errcheck
			h.Write([]byte{0})                                            //nolint:errcheck
		}
	}
	errNames := make([]string, 0, len(s.errs))
	for k := range s.errs {
		errNames = append(errNames, k)
	}
	sort.Strings(errNames)
	for _, k := range errNames {
		h.Write([]byte(k))         //nolint:errcheck
		h.Write([]byte(s.errs[k])) //nolint:errcheck
		h.Write([]byte{0})         //nolint:errcheck
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// keepStale carries a previously-good entry into the next snapshot when
// its file's current state is unloadable, and records the error.
func (r *Registry) keepStale(old, next *snapshot, key string, err error) {
	if prev := old.entries[key]; prev != nil {
		next.entries[key] = prev
	}
	next.errs[key] = err.Error()
}

// load reads, parses and compiles one schema file — following its
// import/include/redefine references through the shared reload cache,
// with location-less imports resolved by the reload's namespace catalog —
// into a fresh Entry, classifying it against prev when there is one.
func (r *Registry) load(key, path string, prev *Entry, cache *reloadCache, catalog map[string]string) (*Entry, error) {
	res := xsd.NewDirResolver(r.dir)
	res.ReadFile = cache.readFile
	res.Catalog = catalog
	schema, err := xsd.ParseFile(path, &xsd.ParseOptions{Resolver: res, ParseDoc: cache.parseDoc})
	if err != nil {
		return nil, err
	}
	sources := schema.Sources()
	files := make([]FileStat, 0, len(sources))
	for _, src := range sources {
		mod, size, serr := cache.stat(src)
		if serr != nil {
			return nil, serr
		}
		files = append(files, FileStat{Path: src, ModTime: mod, Size: size})
	}
	v := validator.New(schema, r.vopts)
	entry := &Entry{
		Name:      key,
		Version:   1,
		Path:      path,
		ModTime:   files[0].ModTime,
		Size:      files[0].Size,
		Files:     files,
		LoadedAt:  time.Now(),
		Schema:    schema,
		Validator: v,
		Stream:    v.Stream(),
		Binder:    bind.New(schema, v),
	}
	if prev != nil {
		entry.Version = prev.Version + 1
		entry.Compat = compat.Classify(prev.Schema, schema)
		if !entry.Compat.Satisfies(r.Gate) {
			return nil, &GateError{Name: key, Gate: r.Gate, Report: entry.Compat}
		}
	}
	return entry, nil
}

// Watch reloads on a fixed interval and whenever kick delivers (the
// binary wires SIGHUP into kick), until ctx is cancelled. There is no
// fsnotify dependency: mtime polling is portable and one stat per closure
// file per interval is free at this scale. Reload errors are reported
// through OnReload and the next tick tries again.
func (r *Registry) Watch(ctx context.Context, interval time.Duration, kick <-chan struct{}) {
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
		case _, ok := <-kick:
			if !ok {
				kick = nil
				continue
			}
		}
		r.Reload() //nolint:errcheck // surfaced via OnReload and Errors
	}
}
