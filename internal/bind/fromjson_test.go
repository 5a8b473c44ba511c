package bind

import (
	"strings"
	"testing"

	"repro/internal/schemas"
)

// TestFromJSONUnknownField checks that every key of a struct object must
// be a field's, "$any", "$element", "$type" or an attribute's.
func TestFromJSONUnknownField(t *testing.T) {
	b, v := mustDecode(t, schemas.PurchaseOrderXSD, schemas.PurchaseOrderDoc)
	js := string(b.JSON(v))
	if _, err := b.FromJSON([]byte(js)); err != nil {
		t.Fatalf("canonical JSON: %v", err)
	}
	for _, tc := range []struct{ name, json, want string }{
		{"top level", strings.Replace(js, `"comment":`, `"bogus":1,"comment":`, 1), `unknown field "bogus" for type PurchaseOrderType`},
		{"nested", strings.Replace(js, `"name":"Alice Smith"`, `"name":"Alice Smith","nayme":"x"`, 1), `unknown field "nayme" for type USAddress`},
		{"only unknown", `{"$element":"purchaseOrder","zzz":[]}`, `unknown field "zzz"`},
	} {
		if _, err := b.FromJSON([]byte(tc.json)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
