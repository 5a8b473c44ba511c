package xsdtypes_test

// Loading a schema costs time near-linear in its global declarations
// however they are arranged: sorting them into build order and checking
// their derivation chains for cycles must not be quadratic. The bounds
// are on CPU time.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// loadCPU parses src and returns the schema and the CPU time it took.
func loadCPU(t *testing.T, src string) (*xsd.Schema, time.Duration) {
	t.Helper()
	begin := xsdtypes.ProcessCPU()
	s, err := xsd.ParseString(src, nil)
	d := xsdtypes.ProcessCPU() - begin
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

// TestFlatTypesLoadLinear: 32,000 global simple types, each restricting
// a built-in, load in under a second of CPU.
func TestFlatTypesLoadLinear(t *testing.T) {
	const n = 32_000
	var b strings.Builder
	b.WriteString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">` + "\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<xsd:simpleType name=\"F%d\"><xsd:restriction base=\"xsd:int\"><xsd:maxInclusive value=\"%d\"/></xsd:restriction></xsd:simpleType>\n", i, i)
	}
	b.WriteString("</xsd:schema>")
	s, d := loadCPU(t, b.String())
	if len(s.Types) != n {
		t.Fatalf("loaded %d types, want %d", len(s.Types), n)
	}
	t.Logf("loading %d flat types took %v of CPU", n, d)
	if !xsdtypes.RaceEnabled() && d > time.Second {
		t.Errorf("loading %d flat types took %v of CPU", n, d)
	}
}

// TestDerivationChainLoadLinear: a 32,000-level restriction chain loads
// in under a second of CPU, and the cycle check that walks it still
// rejects a two-type extension cycle.
func TestDerivationChainLoadLinear(t *testing.T) {
	const depth = 32_000
	s, d := loadCPU(t, chainSchema(depth))
	deep := s.Types[xsd.QName{Local: fmt.Sprintf("L%d", depth)}].(*xsd.SimpleType)
	if _, err := deep.Parse("7"); err != nil {
		t.Fatal(err)
	}
	t.Logf("loading a %d-level chain took %v of CPU", depth, d)
	if !xsdtypes.RaceEnabled() && d > time.Second {
		t.Errorf("loading a %d-level chain took %v of CPU", depth, d)
	}

	_, err := xsd.ParseString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="A"><xsd:complexContent><xsd:extension base="B"/></xsd:complexContent></xsd:complexType>
  <xsd:complexType name="B"><xsd:complexContent><xsd:extension base="A"/></xsd:complexContent></xsd:complexType>
</xsd:schema>`, nil)
	if err == nil || (err.Error() != "xsd: type A is part of a derivation cycle" && err.Error() != "xsd: type B is part of a derivation cycle") {
		t.Errorf("two-type extension cycle: %v", err)
	}
}
