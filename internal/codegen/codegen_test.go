package codegen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen/manifest"
	"repro/internal/normalize"
	"repro/internal/schemas"
	"repro/internal/wml"
	"repro/internal/xsd"
)

func generate(t *testing.T, src string, scheme normalize.Scheme) string {
	t.Helper()
	code, err := Generate(src, Options{Package: "x", Scheme: scheme, SchemaComment: "test"})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return code
}

// TestGoldenGeneratedPackages verifies the checked-in binding packages
// under internal/gen/ are exactly what the generator produces today,
// iterating the same manifest regen writes from.
func TestGoldenGeneratedPackages(t *testing.T) {
	compare := func(path, code string) {
		t.Helper()
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if string(want) != code {
			t.Errorf("%s is stale: run `go run ./internal/gen/regen`", path)
		}
	}
	for _, tgt := range manifest.Targets {
		code, err := Generate(tgt.Source, Options{
			Package: tgt.Pkg, Scheme: normalize.SchemePaper, SchemaComment: tgt.Comment,
		})
		if err != nil {
			t.Fatalf("%s: %v", tgt.Pkg, err)
		}
		compare(filepath.Join("..", "gen", tgt.Pkg, tgt.Pkg+".go"), code)
	}
	for _, tgt := range manifest.WSDLTargets {
		code, err := GenerateWSDLStubs(tgt.Source, WSDLOptions{
			Package: tgt.Pkg, Service: tgt.Service, Comment: tgt.Comment,
		})
		if err != nil {
			t.Fatalf("%s: %v", tgt.Pkg, err)
		}
		compare(filepath.Join("..", "gen", tgt.Pkg, tgt.Pkg+".go"), code)
	}
}

// TestFig5UnionInterface regenerates the paper's Figure 5: the rejected
// union-type representation of the address choice under synthesized
// naming.
func TestFig5UnionInterface(t *testing.T) {
	idl, err := GenerateIDL(schemas.EvolvedPurchaseOrderXSD, IDLUnion, normalize.SchemeSynthesized)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"typedef union singAddrORtwoAddrGroup",
		"switch (enum singAddrORtwoAddrST(singAddr,twoAddr)){",
		"case singAddr: singAddrElement singAddr;",
		"case twoAddr: twoAddrElement twoAddr;",
		"attribute singAddrORtwoAddrGroup singAddrORtwoAddr;",
		"attribute commentElement comment;",
		"attribute itemsElement items;",
	} {
		if !strings.Contains(idl, want) {
			t.Errorf("Fig. 5 output missing %q:\n%s", want, idl)
		}
	}
}

// TestFig6InheritanceInterface regenerates the paper's Figure 6: the
// adopted inheritance representation under the merged naming scheme.
func TestFig6InheritanceInterface(t *testing.T) {
	idl, err := GenerateIDL(schemas.EvolvedPurchaseOrderXSD, IDLInheritance, normalize.SchemePaper)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"interface PurchaseOrderTypeCC1Group {}",
		"interface singAddrElement: PurchaseOrderTypeCC1Group { attribute USAddressType content;}",
		"interface twoAddrElement: PurchaseOrderTypeCC1Group { attribute twoAddressType content;}",
		"attribute PurchaseOrderTypeCC1Group PurchaseOrderTypeCC1;",
	} {
		if !strings.Contains(idl, want) {
			t.Errorf("Fig. 6 output missing %q:\n%s", want, idl)
		}
	}
}

// TestAppendixAInterfaces regenerates the interfaces of the paper's
// Appendix A from the Fig. 2/3 schema.
func TestAppendixAInterfaces(t *testing.T) {
	idl, err := GenerateIDL(schemas.PurchaseOrderXSD, IDLInheritance, normalize.SchemePaper)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"interface purchaseOrderElement {\n  attribute PurchaseOrderTypeType content;\n}",
		"attribute string content", // commentElement
		"interface PurchaseOrderTypeType {",
		"attribute shipToElement shipTo;",
		"attribute billToElement billTo;",
		"attribute commentElement comment;",
		"attribute itemsElement items;",
		"attribute Date orderDate;",
		"interface USAddressType {",
		"interface zipElement { attribute decimal content;}",
		"attribute NMToken country;",
		"attribute SKU partNum;",
		"interface SKU: string { ... }",
	} {
		if !strings.Contains(idl, want) {
			t.Errorf("Appendix A output missing %q:\n%s", want, idl)
		}
	}
}

// TestGeneratedCodeShape spot-checks the Go emission.
func TestGeneratedCodeShape(t *testing.T) {
	code := generate(t, schemas.PurchaseOrderXSD, normalize.SchemePaper)
	for _, want := range []string{
		"type PurchaseOrderTypeType struct",
		"func (d *Document) CreatePurchaseOrderTypeType(shipTo *ShipToElement, billTo *BillToElement, items *ItemsElement) *PurchaseOrderTypeType",
		"func (d *Document) CreateShipTo(content *USAddressType) *ShipToElement",
		"type SKU string",
		"func (t *ItemsType) AddItem(v *ItemElement) *ItemsType",
		"RT.CheckAttr(\"PurchaseOrderType\", \"orderDate\", lexical)",
		"vdom.CheckOccurs(\"ItemsType.item\", len(t.item), 0, -1)",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

// TestSchemeChangesGeneratedNames: the same schema under different naming
// schemes yields different group type names (E6's mechanism).
func TestSchemeChangesGeneratedNames(t *testing.T) {
	paper := generate(t, schemas.EvolvedPurchaseOrderXSD, normalize.SchemePaper)
	synth := generate(t, schemas.EvolvedPurchaseOrderXSD, normalize.SchemeSynthesized)
	if !strings.Contains(paper, "type PurchaseOrderTypeCC1Group interface") {
		t.Error("paper scheme should use inherited choice name")
	}
	if !strings.Contains(synth, "type SingAddrORtwoAddrGroup interface") {
		t.Errorf("synthesized scheme should use member-derived name")
	}
}

// TestGenerateRejectsBadSchema: generator surfaces schema errors.
func TestGenerateRejectsBadSchema(t *testing.T) {
	if _, err := Generate("<not-a-schema/>", Options{Package: "x"}); err == nil {
		t.Error("expected error for a non-schema document")
	}
}

// TestGenerateAllSchemasParseable: every schema in the repository
// generates code that at least parses as Go (format.Source ran inside
// Generate) under all three schemes.
func TestGenerateAllSchemasAllSchemes(t *testing.T) {
	sources := []string{
		schemas.PurchaseOrderXSD,
		schemas.EvolvedPurchaseOrderXSD,
		schemas.AddressDerivationXSD,
		schemas.NamedGroupXSD,
		schemas.NamespacedOrderXSD,
		schemas.ComplexGroupsXSD,
		schemas.WildcardEnvelopeXSD,
		wml.Schema,
	}
	for i, src := range sources {
		for _, scheme := range []normalize.Scheme{normalize.SchemePaper, normalize.SchemeSynthesized, normalize.SchemeInherited} {
			if _, err := Generate(src, Options{Package: "p", Scheme: scheme, SchemaComment: "t"}); err != nil {
				t.Errorf("schema %d scheme %v: %v", i, scheme, err)
			}
		}
	}
}

// TestNamesDeterminism: two runs assign identical names.
func TestNamesDeterminism(t *testing.T) {
	s1, _ := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	s2, _ := xsd.ParseString(schemas.PurchaseOrderXSD, nil)
	n1, _ := normalize.Normalize(s1, normalize.SchemePaper)
	n2, _ := normalize.Normalize(s2, normalize.SchemePaper)
	a, b := AssignNames(n1), AssignNames(n2)
	var la, lb []string
	for _, d := range a.ElementsInOrder {
		la = append(la, a.Elements[d].GoType)
	}
	for _, d := range b.ElementsInOrder {
		lb = append(lb, b.Elements[d].GoType)
	}
	if strings.Join(la, ",") != strings.Join(lb, ",") {
		t.Errorf("element name order differs:\n%v\n%v", la, lb)
	}
}
