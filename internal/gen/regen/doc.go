// Command regen regenerates the checked-in generated packages under
// internal/gen/ — the V-DOM binding file (<pkg>.go) of every target in
// internal/gen/manifest, plus the manifest's WSDL stub packages — from
// the schemas embedded in internal/schemas and internal/wml. The codegen
// golden tests verify the checked-in files stay in sync with the
// generator byte for byte. Hand-written files in the generated packages
// (doc.go, evolvedgen's pairs.go) are left untouched.
//
// Run from the repository root:
//
//	go run ./internal/gen/regen
package main
