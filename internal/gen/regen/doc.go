// Command regen regenerates the checked-in generated packages under
// internal/gen/ — for every target in internal/gen/manifest both the
// V-DOM binding file (<pkg>.go) and the ahead-of-time compiled
// validator (<pkg>_validator.go), plus the manifest's WSDL stub
// packages — from the schemas embedded in internal/schemas and
// internal/wml. Targets with a pruning corpus (popruned) read their
// instance documents from testdata/corpus/. The codegen golden tests
// verify the checked-in files stay in sync with the generator byte for
// byte. Hand-written files in the generated packages (doc.go,
// evolvedgen's pairs.go) are left untouched.
//
// Run from the repository root:
//
//	go run ./internal/gen/regen
package main
