package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/codegen"
	"repro/internal/gen/manifest"
	"repro/internal/normalize"
)

func main() {
	root := "internal/gen"
	for _, t := range manifest.Targets {
		bindings, err := codegen.Generate(t.Source, codegen.Options{
			Package:       t.Pkg,
			Scheme:        normalize.SchemePaper,
			SchemaComment: t.Comment,
		})
		if err != nil {
			fatal(fmt.Errorf("regen %s: %w", t.Pkg, err))
		}
		dir := filepath.Join(root, t.Pkg)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		write(filepath.Join(dir, t.Pkg+".go"), bindings)
	}
	for _, t := range manifest.WSDLTargets {
		code, err := codegen.GenerateWSDLStubs(t.Source, codegen.WSDLOptions{
			Package: t.Pkg, Service: t.Service, Comment: t.Comment,
		})
		if err != nil {
			fatal(fmt.Errorf("regen %s: %w", t.Pkg, err))
		}
		dir := filepath.Join(root, t.Pkg)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		write(filepath.Join(dir, t.Pkg+".go"), code)
	}
}

func write(path, code string) {
	if err := os.WriteFile(path, []byte(code), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(code))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
