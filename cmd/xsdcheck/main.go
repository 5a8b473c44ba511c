// Command xsdcheck validates XML documents against XML Schemas at
// runtime — the paper's baseline workflow that V-DOM renders unnecessary
// for generated documents.
//
// Usage:
//
//	xsdcheck -schema po.xsd doc1.xml [doc2.xml ...]
//	xsdcheck -schema po.xsd,inv.xsd docs/*.xml    # several schemas; documents dispatch by root element
//	xsdcheck -schemadir ./schemas docs/*.xml      # every top-level *.xsd in a directory tree
//	xsdcheck -schema po.xsd -json doc.xml         # decode valid documents to canonical JSON
//
// Schemas may include or import other documents: references resolve
// relative to the referring file, confined to the schema's directory
// tree (-schemadir confines to that directory, so sibling folders like
// lib/ work, and builds a namespace catalog so imports without a
// schemaLocation resolve by target namespace). With more than one
// schema loaded, each document is routed to the schema that declares
// its root element as a global element.
//
// Every document is validated while it is tokenized, with no DOM. With one
// schema and no -json, each file streams from disk, in memory bounded by
// its depth. Otherwise the file is memory-mapped where the platform
// supports it (the tokenizer is zero-copy, so validation runs straight out
// of the page cache) and read conventionally elsewhere, so the root
// element can pick the schema. A document that is not well-formed is
// INVALID, with its parse error as the one violation, at path /. The
// -stream and -parallel flags of earlier versions are accepted and change
// nothing.
//
// Multiple documents are read, parsed and validated concurrently through
// shared validators (bounded by -p workers, default GOMAXPROCS), so each
// schema's content models compile once and every core helps with a bulk
// run. Reports are still printed in argument order. The exit status is 0
// when every document is valid, 1 otherwise.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/bind"
	"repro/internal/mmapfile"
	"repro/internal/validator"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// report is the outcome of checking one file, formatted by the worker and
// printed by the main goroutine in argument order.
type report struct {
	out     string // stdout text
	errText string // stderr text
	failed  bool
}

// schemaEntry is one loaded schema with its shared validator (and binder
// when -json is on).
type schemaEntry struct {
	path   string
	schema *xsd.Schema
	v      *validator.Validator
	binder *bind.Binder
}

// schemaSet routes documents to schemas. With one schema every document
// goes to it (the validator reports unknown roots itself); with several,
// the document's root element picks the schema declaring it.
type schemaSet struct {
	entries []*schemaEntry
	byRoot  map[xsd.QName]*schemaEntry
}

func loadSchemas(paths []string, root string, withBinder bool) (*schemaSet, error) {
	set := &schemaSet{byRoot: map[xsd.QName]*schemaEntry{}}
	// With -schemadir, a namespace catalog over the directory lets
	// schemas import by namespace alone (no schemaLocation), same as the
	// serving registry.
	var catalog map[string]string
	if root != "" {
		var err error
		if catalog, err = xsd.BuildCatalog(root, os.ReadFile); err != nil {
			return nil, err
		}
	}
	for _, p := range paths {
		opts := &xsd.ParseOptions{}
		if root != "" {
			r := xsd.NewDirResolver(root)
			r.Catalog = catalog
			opts.Resolver = r
		}
		schema, err := xsd.ParseFile(p, opts)
		if err != nil {
			return nil, err
		}
		e := &schemaEntry{path: p, schema: schema, v: validator.New(schema, nil)}
		if withBinder {
			e.binder = bind.New(schema, e.v)
		}
		set.entries = append(set.entries, e)
		for q := range schema.Elements {
			if _, taken := set.byRoot[q]; !taken {
				set.byRoot[q] = e // first schema in argument order wins
			}
		}
	}
	return set, nil
}

// forDoc picks the schema for a document by sniffing its root element.
func (s *schemaSet) forDoc(src []byte) (*schemaEntry, error) {
	if len(s.entries) == 1 {
		return s.entries[0], nil
	}
	d := xmlparser.NewDecoder(src, nil)
	defer d.Release()
	var tok xmlparser.Token
	for {
		if err := d.Next(&tok); err != nil {
			return nil, fmt.Errorf("not well-formed: %w", err)
		}
		if tok.Kind == xmlparser.KindStartElement {
			q := xsd.QName{Space: tok.Name.Space, Local: tok.Name.Local}
			e, ok := s.byRoot[q]
			if !ok {
				return nil, fmt.Errorf("no loaded schema declares root element %s", q)
			}
			return e, nil
		}
	}
}

func main() {
	schemaPath := flag.String("schema", "", "XML Schema path(s), comma-separated")
	schemaDir := flag.String("schemadir", "", "directory whose top-level *.xsd files are all loaded (references may reach anywhere under it)")
	quiet := flag.Bool("q", false, "suppress per-violation output")
	workers := flag.Int("p", runtime.GOMAXPROCS(0), "max files processed in parallel")
	flag.Bool("stream", false, "no effect: every document streams; kept for existing scripts")
	flag.Bool("parallel", false, "no effect: every document streams; kept for existing scripts")
	jsonOut := flag.Bool("json", false, "decode valid documents to canonical JSON in the same pass (invalid ones still report violations)")
	flag.Parse()

	var schemaFiles []string
	for _, p := range strings.Split(*schemaPath, ",") {
		if p = strings.TrimSpace(p); p != "" {
			schemaFiles = append(schemaFiles, p)
		}
	}
	if *schemaDir != "" {
		dirents, err := os.ReadDir(*schemaDir)
		if err != nil {
			fatal(err)
		}
		var names []string
		for _, de := range dirents {
			if !de.IsDir() && strings.HasSuffix(de.Name(), ".xsd") {
				names = append(names, de.Name())
			}
		}
		sort.Strings(names)
		for _, n := range names {
			schemaFiles = append(schemaFiles, filepath.Join(*schemaDir, n))
		}
	}
	if len(schemaFiles) == 0 || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: xsdcheck -schema s.xsd[,t.xsd...] | -schemadir dir  doc.xml...")
		os.Exit(2)
	}

	set, err := loadSchemas(schemaFiles, *schemaDir, *jsonOut)
	if err != nil {
		fatal(err)
	}

	paths := flag.Args()
	n := *workers
	if n <= 0 {
		n = 1
	}
	if n > len(paths) {
		n = len(paths)
	}
	reports := make([]report, len(paths))
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				reports[i] = checkOne(set, paths[i], *quiet, *jsonOut)
			}
		}()
	}
	for i := range paths {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	exit := 0
	for _, r := range reports {
		if r.errText != "" {
			fmt.Fprint(os.Stderr, r.errText)
		}
		if r.out != "" {
			fmt.Print(r.out)
		}
		if r.failed {
			exit = 1
		}
	}
	os.Exit(exit)
}

// checkOne routes one document to its schema and validates it, decoding it
// too with -json. A single schema's validation streams from the file; the
// other cases map it first to sniff the root element.
func checkOne(set *schemaSet, path string, quiet, jsonOut bool) report {
	if !jsonOut && len(set.entries) == 1 {
		return checkFileStream(set.entries[0].v.Stream(), path, quiet)
	}
	// Documents are memory-mapped when the platform allows: the tokenizer
	// is zero-copy over src, so large files are validated straight out of
	// the page cache. Every reference into src (decoded values, violations)
	// is rendered to the report's strings before the mapping is released.
	src, release, err := mmapfile.ReadFile(path)
	if err != nil {
		return report{errText: fmt.Sprintf("xsdcheck: %v\n", err), failed: true}
	}
	defer release()
	e, err := set.forDoc(src)
	if err != nil {
		return report{errText: fmt.Sprintf("%s: %v\n", path, err), failed: true}
	}
	if jsonOut {
		return checkJSON(e.binder, path, src, quiet)
	}
	return renderResult(path, e.v.Stream().ValidateBytes(src), quiet)
}

// checkFileStream validates one document while reading it: the file is
// tokenized and checked as it is read, with memory bounded by tree depth
// instead of file size. Each worker streams its own file.
func checkFileStream(sv *validator.StreamValidator, path string, quiet bool) report {
	f, err := os.Open(path)
	if err != nil {
		return report{errText: fmt.Sprintf("xsdcheck: %v\n", err), failed: true}
	}
	defer f.Close()
	res := sv.ValidateReader(f)
	return renderResult(path, res, quiet)
}

// checkJSON validates and decodes one document in the same pass, printing
// the canonical JSON for valid documents and the usual violation report
// otherwise.
func checkJSON(b *bind.Binder, path string, src []byte, quiet bool) report {
	val, res, err := b.DecodeReader(context.Background(), bytes.NewReader(src))
	if err != nil && err != io.EOF {
		return report{errText: fmt.Sprintf("%s: %v\n", path, err), failed: true}
	}
	if val == nil {
		return renderResult(path, res, quiet)
	}
	return report{out: string(b.JSONIndent(val)) + "\n"}
}

// renderResult formats one validation outcome.
func renderResult(path string, res *validator.Result, quiet bool) report {
	if res.OK() {
		return report{out: fmt.Sprintf("%s: valid\n", path)}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: INVALID (%d violations)\n", path, len(res.Violations))
	if !quiet {
		for _, viol := range res.Violations {
			fmt.Fprintf(&b, "  %s\n", viol.Error())
		}
	}
	return report{out: b.String(), failed: true}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xsdcheck:", err)
	os.Exit(1)
}
