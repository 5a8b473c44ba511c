// Command xsdbind converts between XML and canonical JSON under a schema:
// decoding validates and decodes in one pass (the verdict and the typed
// value come from the same automata walk), encoding maps canonical JSON
// back to XML and validates it as it is written, so the output is
// schema-valid by construction or the command fails.
//
// Usage:
//
//	xsdbind -schema po.xsd doc.xml            # XML -> canonical JSON on stdout
//	xsdbind -schema po.xsd -encode doc.json   # canonical JSON -> schema-valid XML
//	cat doc.xml | xsdbind -schema po.xsd -    # "-" reads stdin
//
// Decoding streams: the document is validated and decoded while it is
// read, with no DOM. The -stream flag of earlier versions is accepted and
// changes nothing.
//
// The exit status is 0 when the conversion succeeded, 1 when the input
// was invalid (violations on stderr) and 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bind"
	"repro/internal/validator"
	"repro/internal/xsd"
)

func main() {
	schemaPath := flag.String("schema", "", "path to the XML Schema (required)")
	encode := flag.Bool("encode", false, "treat the input as canonical JSON and emit schema-valid XML")
	flag.Bool("stream", false, "no effect: decoding always streams; kept for existing scripts")
	compact := flag.Bool("compact", false, "emit compact JSON instead of indented")
	flag.Parse()
	if *schemaPath == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xsdbind -schema s.xsd [-encode] [-compact] file|-")
		os.Exit(2)
	}
	schemaSrc, err := os.ReadFile(*schemaPath)
	if err != nil {
		fatal(err)
	}
	schema, err := xsd.Parse(schemaSrc, nil)
	if err != nil {
		fatal(err)
	}
	b := bind.New(schema, validator.New(schema, nil))

	if *encode {
		os.Exit(runEncode(b, flag.Arg(0)))
	}
	os.Exit(runDecode(b, flag.Arg(0), *compact))
}

// runDecode validates and decodes one XML document to canonical JSON while
// reading it.
func runDecode(b *bind.Binder, path string, compact bool) int {
	f, err := open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	val, res, err := b.DecodeReader(context.Background(), f)
	if err != nil {
		fatal(err)
	}
	if val == nil {
		fmt.Fprintf(os.Stderr, "%s: INVALID (%d violations)\n", path, len(res.Violations))
		for _, viol := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", viol.Error())
		}
		return 1
	}
	if compact {
		os.Stdout.Write(b.JSON(val)) //nolint:errcheck
	} else {
		os.Stdout.Write(b.JSONIndent(val)) //nolint:errcheck
	}
	fmt.Println()
	return 0
}

// runEncode maps canonical JSON back to schema-valid XML.
func runEncode(b *bind.Binder, path string) int {
	src, err := readInput(path)
	if err != nil {
		fatal(err)
	}
	val, err := b.FromJSON(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xsdbind:", err)
		return 1
	}
	xml, err := b.Marshal(val)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xsdbind:", err)
		return 1
	}
	os.Stdout.Write(xml) //nolint:errcheck
	fmt.Println()
	return 0
}

func open(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xsdbind:", err)
	os.Exit(1)
}
