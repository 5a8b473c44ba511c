package xsd

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/xmlparser"
)

// Resolver resolves xs:include / xs:import / xs:redefine schemaLocation
// references to schema documents. A Resolver sees the *referring*
// document's canonical key, so relative locations resolve the way authors
// expect ("../common/types.xsd" means relative to the file containing the
// reference, not to some global search path), and it returns a canonical
// key per document so that one file reached through two different
// relative spellings is loaded exactly once — which is also what makes
// reference cycles terminate.
type Resolver interface {
	// Resolve returns the canonical key of the document at location,
	// relative to the document with canonical key base ("" for the root
	// document), together with its bytes.
	Resolve(base, location string) (key string, src []byte, err error)
}

// NamespaceResolver resolves xs:import references that carry no
// schemaLocation: the import names only a namespace, and a catalog built
// from the schema directory supplies the document that declares it. A
// Resolver that also implements NamespaceResolver enables that lookup;
// without it, a location-less import keeps its historical meaning
// ("components expected elsewhere") and resolves nothing.
type NamespaceResolver interface {
	// ResolveNamespace returns the canonical key and bytes of the document
	// declaring namespace as its target namespace. A namespace the catalog
	// does not know is NOT an error: ok=false falls back to the
	// components-expected-elsewhere behavior.
	ResolveNamespace(namespace string) (key string, src []byte, ok bool, err error)
}

// DirResolver resolves schemaLocation references against the referring
// document's directory, confined to one root directory tree. Canonical
// keys are absolute cleaned file paths, so diamonds and cycles in the
// reference graph are detected no matter how each edge spells its path.
//
// References that would escape the root (via "..", absolute paths outside
// it, or symlink-free lexical tricks) are rejected: a schema directory
// served by the registry must not be able to read arbitrary files.
type DirResolver struct {
	root string

	// ReadFile loads the bytes of an already-confinement-checked absolute
	// path; os.ReadFile when nil. The registry injects a per-reload cache
	// here so a dependency shared by many schemas is read (and statted)
	// once per reload instead of once per dependent.
	ReadFile func(path string) ([]byte, error)

	// Catalog maps target namespaces to the absolute path of the schema
	// document declaring them, enabling schemaLocation-less xs:import.
	// Build one with BuildCatalog, or assemble it by hand. Nil disables
	// namespace resolution.
	Catalog map[string]string
}

// NewDirResolver creates a resolver confined to the directory tree rooted
// at root.
func NewDirResolver(root string) *DirResolver {
	return &DirResolver{root: root}
}

// Resolve implements Resolver.
func (d *DirResolver) Resolve(base, location string) (string, []byte, error) {
	if strings.Contains(location, "://") {
		return "", nil, fmt.Errorf("remote schemaLocation %q is not supported", location)
	}
	absRoot, err := filepath.Abs(d.root)
	if err != nil {
		return "", nil, err
	}
	baseDir := absRoot
	if base != "" {
		baseDir = filepath.Dir(base)
	}
	cand := location
	if !filepath.IsAbs(cand) {
		cand = filepath.Join(baseDir, cand)
	}
	cand = filepath.Clean(cand)
	rel, err := filepath.Rel(absRoot, cand)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", nil, fmt.Errorf("schemaLocation %q escapes the schema root %s", location, d.root)
	}
	read := d.ReadFile
	if read == nil {
		read = os.ReadFile
	}
	src, err := read(cand)
	if err != nil {
		return "", nil, err
	}
	return cand, src, nil
}

// ResolveNamespace implements NamespaceResolver over the Catalog field.
// The returned key is the catalog path, confined to the resolver's root
// like any other reference.
func (d *DirResolver) ResolveNamespace(namespace string) (string, []byte, bool, error) {
	path, ok := d.Catalog[namespace]
	if !ok {
		return "", nil, false, nil
	}
	key, src, err := d.Resolve("", path)
	if err != nil {
		return "", nil, true, fmt.Errorf("namespace catalog entry for %q: %w", namespace, err)
	}
	return key, src, true, nil
}

// BuildCatalog scans the directory tree rooted at root for *.xsd files
// and maps each target namespace to the file declaring it. Only the root
// element's targetNamespace attribute is read (a cheap token scan, not a
// full schema parse), so building the catalog over a large directory is
// one pass of opens, not compiles. When several files declare the same
// namespace the lexicographically smallest path wins, which keeps the
// catalog deterministic across reloads; no-namespace documents are not
// cataloged (an import cannot name them). readFile may be nil
// (os.ReadFile); the registry injects its per-reload cache.
func BuildCatalog(root string, readFile func(path string) ([]byte, error)) (map[string]string, error) {
	if readFile == nil {
		readFile = os.ReadFile
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	catalog := map[string]string{}
	walkErr := filepath.WalkDir(absRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".xsd") {
			return err
		}
		src, rerr := readFile(path)
		if rerr != nil {
			return nil // unreadable file: not cataloged, surfaced if referenced
		}
		tns, ok := sniffTargetNamespace(src)
		if !ok || tns == "" {
			return nil
		}
		if prev, taken := catalog[tns]; !taken || path < prev {
			catalog[tns] = path
		}
		return nil
	})
	if walkErr != nil {
		return nil, walkErr
	}
	return catalog, nil
}

// sniffTargetNamespace tokenizes src just far enough to read the root
// element's targetNamespace attribute. ok is false when the document is
// not well-formed up to its root start tag or the root is not xs:schema.
func sniffTargetNamespace(src []byte) (string, bool) {
	d := xmlparser.NewDecoder(src, nil)
	defer d.Release()
	var tok xmlparser.Token
	for {
		if err := d.Next(&tok); err != nil {
			return "", false
		}
		if tok.Kind != xmlparser.KindStartElement {
			continue
		}
		if tok.Name.Space != XSDNamespace || tok.Name.Local != "schema" {
			return "", false
		}
		for _, a := range tok.Attrs {
			if a.Name.Space == "" && a.Name.Local == "targetNamespace" {
				return a.Value, true
			}
		}
		return "", true
	}
}

// MapLoader serves schema documents from an in-memory map, keyed by
// schemaLocation: it resolves no relative references, so the location is
// also the canonical key.
type MapLoader map[string][]byte

// Resolve implements Resolver, ignoring the referring document.
func (m MapLoader) Resolve(_, location string) (string, []byte, error) {
	src, ok := m[location]
	if !ok {
		return "", nil, fmt.Errorf("xsd: no schema document at %q", location)
	}
	return location, src, nil
}

// ParseFile parses the schema document at path, following its
// xs:include / xs:import / xs:redefine references relative to each
// referring document. When opts carries no Resolver, references are
// confined to the document's own directory tree; pass a DirResolver
// rooted higher (e.g. at a schema-registry directory) to allow sibling
// directories. The resulting schema records the canonical paths of every
// document that contributed components (Schema.Sources), which is what
// dependency-closure invalidation in the registry is built on.
func ParseFile(path string, opts *ParseOptions) (*Schema, error) {
	o := ParseOptions{}
	if opts != nil {
		o = *opts
	}
	if o.Resolver == nil {
		o.Resolver = NewDirResolver(filepath.Dir(path))
	}
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, err
	}
	key, src, err := o.Resolver.Resolve("", abs)
	if err != nil {
		return nil, fmt.Errorf("xsd: %w", err)
	}
	return parseRoot(src, o, key)
}
