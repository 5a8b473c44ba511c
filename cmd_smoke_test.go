package repro

// Smoke tests for the CLI tools: each binary is exercised through
// `go run` on the paper's artifacts. They prove the Fig. 9 pipeline works
// from the command line, not just through library calls.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schemas"
)

// runCmd executes `go run ./cmd/<tool> args...` from the repo root.
func runCmd(t *testing.T, wantExitZero bool, tool string, args ...string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	out, err := cmd.CombinedOutput()
	if wantExitZero && err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	if !wantExitZero && err == nil {
		t.Fatalf("%s %v: expected non-zero exit\n%s", tool, args, out)
	}
	return string(out)
}

// writeTemp materializes test data on disk for the CLIs.
func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdXsdcheck(t *testing.T) {
	schema := writeTemp(t, "po.xsd", schemas.PurchaseOrderXSD)
	good := writeTemp(t, "good.xml", schemas.PurchaseOrderDoc)
	bad := writeTemp(t, "bad.xml", strings.Replace(schemas.PurchaseOrderDoc, "<quantity>1</quantity>", "<quantity>9999</quantity>", 1))

	out := runCmd(t, true, "xsdcheck", "-schema", schema, good)
	if !strings.Contains(out, "valid") {
		t.Errorf("xsdcheck good: %s", out)
	}
	out = runCmd(t, false, "xsdcheck", "-schema", schema, bad)
	if !strings.Contains(out, "INVALID") {
		t.Errorf("xsdcheck bad: %s", out)
	}
	// -parallel is an alias of -stream; verdicts must match.
	out = runCmd(t, true, "xsdcheck", "-schema", schema, "-parallel", good)
	if !strings.Contains(out, "valid") {
		t.Errorf("xsdcheck -parallel good: %s", out)
	}
	out = runCmd(t, false, "xsdcheck", "-schema", schema, "-parallel", bad)
	if !strings.Contains(out, "INVALID") {
		t.Errorf("xsdcheck -parallel bad: %s", out)
	}
	// -json decodes a valid document to canonical JSON in the same pass.
	out = runCmd(t, true, "xsdcheck", "-schema", schema, "-json", good)
	if !strings.Contains(out, `"$element": "purchaseOrder"`) {
		t.Errorf("xsdcheck -json: %s", out)
	}
	out = runCmd(t, false, "xsdcheck", "-schema", schema, "-json", bad)
	if !strings.Contains(out, "INVALID") {
		t.Errorf("xsdcheck -json bad: %s", out)
	}

	// -schemadir builds a namespace catalog: main.xsd imports urn:lib
	// without a schemaLocation and still resolves to lib.xsd next to it.
	dir := t.TempDir()
	files := map[string]string{
		"lib.xsd": `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:lib">
  <xsd:simpleType name="Word"><xsd:restriction base="xsd:string"><xsd:pattern value="[a-z]+"/></xsd:restriction></xsd:simpleType>
</xsd:schema>`,
		"main.xsd": `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:m" xmlns:l="urn:lib">
  <xsd:import namespace="urn:lib"/>
  <xsd:element name="doc" type="l:Word"/>
</xsd:schema>`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	okDoc := writeTemp(t, "ok.xml", `<m:doc xmlns:m="urn:m">hello</m:doc>`)
	badDoc := writeTemp(t, "bad2.xml", `<m:doc xmlns:m="urn:m">HELLO</m:doc>`)
	out = runCmd(t, true, "xsdcheck", "-schemadir", dir, okDoc)
	if !strings.Contains(out, "valid") {
		t.Errorf("xsdcheck -schemadir good: %s", out)
	}
	out = runCmd(t, false, "xsdcheck", "-schemadir", dir, badDoc)
	if !strings.Contains(out, "INVALID") {
		t.Errorf("xsdcheck -schemadir bad: %s", out)
	}
}

func TestCmdXsdbind(t *testing.T) {
	schema := writeTemp(t, "po.xsd", schemas.PurchaseOrderXSD)
	good := writeTemp(t, "good.xml", schemas.PurchaseOrderDoc)
	bad := writeTemp(t, "bad.xml", strings.Replace(schemas.PurchaseOrderDoc, "<quantity>1</quantity>", "<quantity>9999</quantity>", 1))

	// Decode (DOM and stream paths must agree), then encode the JSON back
	// and decode once more: the canonical JSON is the fixed point.
	j := runCmd(t, true, "xsdbind", "-schema", schema, "-compact", good)
	if !strings.Contains(j, `"$element":"purchaseOrder"`) {
		t.Fatalf("xsdbind decode: %s", j)
	}
	js := runCmd(t, true, "xsdbind", "-schema", schema, "-compact", "-stream", good)
	if j != js {
		t.Errorf("stream decode diverged:\n  dom:    %s\n  stream: %s", j, js)
	}
	jsonPath := writeTemp(t, "good.json", j)
	xml := runCmd(t, true, "xsdbind", "-schema", schema, "-encode", jsonPath)
	xmlPath := writeTemp(t, "roundtrip.xml", xml)
	j2 := runCmd(t, true, "xsdbind", "-schema", schema, "-compact", xmlPath)
	if j != j2 {
		t.Errorf("round trip changed the value:\n  before: %s\n  after:  %s", j, j2)
	}
	out := runCmd(t, false, "xsdbind", "-schema", schema, bad)
	if !strings.Contains(out, "INVALID") {
		t.Errorf("xsdbind bad: %s", out)
	}
}

func TestCmdVdomgen(t *testing.T) {
	schema := writeTemp(t, "po.xsd", schemas.PurchaseOrderXSD)
	out := runCmd(t, true, "vdomgen", "-schema", schema, "-package", "mygen")
	for _, want := range []string{"package mygen", "type PurchaseOrderTypeType struct", "func (d *Document) CreateShipTo"} {
		if !strings.Contains(out, want) {
			t.Errorf("vdomgen output missing %q", want)
		}
	}
	// Unknown scheme is rejected.
	runCmd(t, false, "vdomgen", "-schema", schema, "-scheme", "bogus")
}

func TestCmdPxmlc(t *testing.T) {
	schema := writeTemp(t, "po.xsd", schemas.PurchaseOrderXSD)
	goodSrc := writeTemp(t, "good.pxml", `package p
//pxml:package pogen
//pxml:doc d
func f(d *pogen.Document) {
	c := <comment>hello</comment>;
	_ = c
}
`)
	out := runCmd(t, true, "pxmlc", "-schema", schema, goodSrc)
	if !strings.Contains(out, `d.CreateComment("hello")`) {
		t.Errorf("pxmlc output: %s", out)
	}
	// -check mode reports success without emitting.
	out = runCmd(t, true, "pxmlc", "-schema", schema, "-check", goodSrc)
	if !strings.Contains(out, "all constructors valid") {
		t.Errorf("pxmlc -check: %s", out)
	}
	// Static rejection exits non-zero.
	badSrc := writeTemp(t, "bad.pxml", `package p
//pxml:package pogen
//pxml:doc d
func f(d *pogen.Document) {
	q := <quantity>100</quantity>;
	_ = q
}
`)
	out = runCmd(t, false, "pxmlc", "-schema", schema, badSrc)
	if !strings.Contains(out, "must be < 100") {
		t.Errorf("pxmlc rejection message: %s", out)
	}
}

func TestCmdXmlfmt(t *testing.T) {
	doc := writeTemp(t, "po.xml", schemas.PurchaseOrderDoc)
	out := runCmd(t, true, "xmlfmt", doc)
	if !strings.Contains(out, "<purchaseOrder") {
		t.Errorf("xmlfmt: %s", out)
	}
	out = runCmd(t, true, "xmlfmt", "-dump", doc)
	if !strings.Contains(out, "Element purchaseOrder") {
		t.Errorf("xmlfmt -dump: %s", out)
	}
	badDoc := writeTemp(t, "bad.xml", "<a><b></a>")
	runCmd(t, false, "xmlfmt", badDoc)
}
