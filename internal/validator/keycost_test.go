package validator

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/xsd"
)

// keyedItemsXSD keys the items of <keyed> by their id; each item may hold
// any number of <d> children, which no selector or field reaches.
const keyedItemsXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="keyed">
    <xsd:complexType><xsd:sequence>
      <xsd:element name="item" maxOccurs="unbounded">
        <xsd:complexType>
          <xsd:sequence><xsd:element name="d" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/></xsd:sequence>
          <xsd:attribute name="id" type="xsd:string" use="required"/>
        </xsd:complexType>
      </xsd:element>
    </xsd:sequence></xsd:complexType>
    <xsd:key name="itemKey"><xsd:selector xpath="item"/><xsd:field xpath="@id"/></xsd:key>
  </xsd:element>
</xsd:schema>`

// keyedDoc writes n keyed items, each with kids <d> children.
func keyedDoc(n, kids int) []byte {
	var sb strings.Builder
	sb.WriteString("<keyed>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<item id="i%d">`, i)
		sb.WriteString(strings.Repeat("<d>x</d>", kids))
		sb.WriteString("</item>")
	}
	sb.WriteString("</keyed>")
	return []byte(sb.String())
}

// bytesPerRun returns what one run of f allocates, averaged over runs
// after a warm-up, with the collector off so the pools stay warm.
func bytesPerRun(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestKeyedScopeCostsItsKeys streams a 1,000-item document keyed at its
// root whose items each carry 20 descendants no path reaches: the scope
// costs its keys, not its subtree, so the run allocates at most 1.5 times
// what the same document with bare items does.
func TestKeyedScopeCostsItsKeys(t *testing.T) {
	s, err := xsd.ParseString(keyedItemsXSD, nil)
	if err != nil {
		t.Fatal(err)
	}
	sv := New(s, nil).Stream()
	run := func(src []byte) func() {
		return func() {
			if res := sv.ValidateBytes(src); !res.OK() {
				t.Fatal(res.Err())
			}
		}
	}
	deep, bare := keyedDoc(1000, 20), keyedDoc(1000, 0)
	deepBytes, bareBytes := bytesPerRun(run(deep)), bytesPerRun(run(bare))
	t.Logf("items with 20 descendants: %d B per run; bare items: %d B per run", deepBytes, bareBytes)
	if float64(deepBytes) > 1.5*float64(bareBytes) {
		t.Errorf("items with 20 descendants cost %d B per run, over 1.5x the %d B of bare items", deepBytes, bareBytes)
	}
	if res := sv.ValidateBytes([]byte(`<keyed><item id="a"><d/></item><item id="a"/></keyed>`)); res.OK() {
		t.Error("duplicate key accepted")
	}
}
