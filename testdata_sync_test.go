package repro

import (
	"os"
	"testing"

	"repro/internal/schemas"
)

// TestCheckedInSchemaInSync guards testdata/schemas/po.xsd — the on-disk
// copy of the embedded purchase-order schema that the README quickstart
// points xsdserved at — against drifting from the constant the rest of
// the repo compiles in.
func TestCheckedInSchemaInSync(t *testing.T) {
	disk, err := os.ReadFile("testdata/schemas/po.xsd")
	if err != nil {
		t.Fatal(err)
	}
	if string(disk) != schemas.PurchaseOrderXSD {
		t.Fatal("testdata/schemas/po.xsd differs from schemas.PurchaseOrderXSD; regenerate the file from the constant")
	}
}

// TestCheckedInWSDLsInSync guards the on-disk WSDL corpus under
// testdata/wsdl/ — what xsdserved -wsdls and the integration test load —
// against drifting from the constants the generated stub packages embed.
func TestCheckedInWSDLsInSync(t *testing.T) {
	for _, tc := range []struct {
		path string
		want string
	}{
		{"testdata/wsdl/calc.wsdl", schemas.CalcWSDL},
		{"testdata/wsdl/orders.wsdl", schemas.OrdersWSDL},
	} {
		disk, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if string(disk) != tc.want {
			t.Errorf("%s differs from its schemas constant; regenerate the file from the constant", tc.path)
		}
	}
}
