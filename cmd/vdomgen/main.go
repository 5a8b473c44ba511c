// Command vdomgen generates Go V-DOM bindings from an XML Schema: one
// distinct, strictly typed Go type per element declaration, type
// definition and model group (the paper's §3 transformation).
//
// The output holds bindings only. Documents of the generated package are
// validated and decoded by the interpreted validator and binder over its
// runtime schema: validator.New(RT.Schema, nil), bind.New(RT.Schema, nil).
//
// Usage:
//
//	vdomgen -schema po.xsd -package pogen [-scheme paper|synthesized|inherited]
//	        [-o out.go]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/codegen"
	"repro/internal/normalize"
)

func main() {
	var (
		schemaPath = flag.String("schema", "", "path to the XML Schema document (required)")
		pkg        = flag.String("package", "bindings", "Go package name for the generated file")
		schemeName = flag.String("scheme", "paper", "naming scheme: paper, synthesized or inherited")
		out        = flag.String("o", "", "output file (default: stdout)")
	)
	flag.Parse()
	if *schemaPath == "" {
		fmt.Fprintln(os.Stderr, "vdomgen: -schema is required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*schemaPath)
	if err != nil {
		fatal(err)
	}
	var scheme normalize.Scheme
	switch *schemeName {
	case "paper":
		scheme = normalize.SchemePaper
	case "synthesized":
		scheme = normalize.SchemeSynthesized
	case "inherited":
		scheme = normalize.SchemeInherited
	default:
		fatal(fmt.Errorf("unknown scheme %q", *schemeName))
	}
	code, err := codegen.Generate(string(src), codegen.Options{
		Package:       *pkg,
		Scheme:        scheme,
		SchemaComment: *schemaPath,
	})
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		fmt.Print(code)
		return
	}
	if err := os.WriteFile(*out, []byte(code), 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vdomgen:", err)
	os.Exit(1)
}
