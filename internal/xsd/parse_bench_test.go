package xsd

import (
	"fmt"
	"strings"
	"testing"
)

// parseBenchXSD declares the purchase order's simple types (its facet-free
// string, quantity, decimal, date and SKU), an 8-value enumeration and a
// 20-level chain of xs:int restrictions, I1 to I20.
func parseBenchXSD() string {
	var b strings.Builder
	b.WriteString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:simpleType name="Plain"><xsd:restriction base="xsd:string"/></xsd:simpleType>
  <xsd:simpleType name="Quantity">
    <xsd:restriction base="xsd:positiveInteger"><xsd:maxExclusive value="100"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="SKU">
    <xsd:restriction base="xsd:string"><xsd:pattern value="\d{3}-[A-Z]{2}"/></xsd:restriction>
  </xsd:simpleType>
  <xsd:simpleType name="Color"><xsd:restriction base="xsd:token">`)
	for _, c := range []string{"red", "orange", "yellow", "green", "blue", "indigo", "violet", "black"} {
		fmt.Fprintf(&b, `<xsd:enumeration value="%s"/>`, c)
	}
	b.WriteString("</xsd:restriction></xsd:simpleType>\n")
	base := "xsd:int"
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&b, `<xsd:simpleType name="I%d"><xsd:restriction base="%s"><xsd:maxInclusive value="%d"/></xsd:restriction></xsd:simpleType>`+"\n",
			i, base, 1_000_000-i)
		base = fmt.Sprintf("I%d", i)
	}
	b.WriteString("</xsd:schema>")
	return b.String()
}

// BenchmarkSimpleTypeParse parses one valid value per type: the cost of a
// valid value, which the folded plan decides in one pass.
func BenchmarkSimpleTypeParse(b *testing.B) {
	s, err := ParseString(parseBenchXSD(), nil)
	if err != nil {
		b.Fatal(err)
	}
	user := func(name string) *SimpleType { return s.Types[QName{Local: name}].(*SimpleType) }
	for _, leg := range []struct {
		name, value string
		st          *SimpleType
	}{
		{"string", "Lawnmower", user("Plain")},
		{"quantity", "42", user("Quantity")},
		{"decimal", "148.95", s.SimpleTypeOf("decimal")},
		{"date", "1999-12-21", s.SimpleTypeOf("date")},
		{"sku", "926-AA", user("SKU")},
		{"enum8", "violet", user("Color")},
		{"int-chain20", "7", user("I20")},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := leg.st.Parse(leg.value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
