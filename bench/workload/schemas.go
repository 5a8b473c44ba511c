// Package workload generates the benchmark's inputs from a seed: the
// schema directory the server boots over, and the pool of requests each
// traffic mix sends. Every document carries its expected verdict, worked
// out from how it was built — valid documents are built valid, invalid
// ones come from one fixed mutation — so the oracle that checks the
// server's answers never asks the code under test what the answer is.
package workload

import (
	"fmt"
	"os"
	"path/filepath"
)

// Tenants is how many tenant schemas the directory holds. Each imports
// lib/common.xsd, the many-importers shape the registry's shared parse
// cache exists for.
const Tenants = 200

// Entries is the number of schemas the server must list once booted:
// po, chain and the tenants.
const Entries = Tenants + 2

// poXSD is the purchase-order schema of the XML Schema primer, the
// running example of the paper.
const poXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="purchaseOrder" type="PurchaseOrderType"/>
  <xsd:element name="comment" type="xsd:string"/>
  <xsd:complexType name="PurchaseOrderType">
    <xsd:sequence>
      <xsd:element name="shipTo" type="USAddress"/>
      <xsd:element name="billTo" type="USAddress"/>
      <xsd:element ref="comment" minOccurs="0"/>
      <xsd:element name="items" type="Items"/>
    </xsd:sequence>
    <xsd:attribute name="orderDate" type="xsd:date"/>
  </xsd:complexType>
  <xsd:complexType name="USAddress">
    <xsd:sequence>
      <xsd:element name="name" type="xsd:string"/>
      <xsd:element name="street" type="xsd:string"/>
      <xsd:element name="city" type="xsd:string"/>
      <xsd:element name="state" type="xsd:string"/>
      <xsd:element name="zip" type="xsd:decimal"/>
    </xsd:sequence>
    <xsd:attribute name="country" type="xsd:NMTOKEN" fixed="US"/>
  </xsd:complexType>
  <xsd:complexType name="Items">
    <xsd:sequence>
      <xsd:element name="item" minOccurs="0" maxOccurs="unbounded">
        <xsd:complexType>
          <xsd:sequence>
            <xsd:element name="productName" type="xsd:string"/>
            <xsd:element name="quantity">
              <xsd:simpleType>
                <xsd:restriction base="xsd:positiveInteger">
                  <xsd:maxExclusive value="100"/>
                </xsd:restriction>
              </xsd:simpleType>
            </xsd:element>
            <xsd:element name="USPrice" type="xsd:decimal"/>
            <xsd:element ref="comment" minOccurs="0"/>
            <xsd:element name="shipDate" type="xsd:date" minOccurs="0"/>
          </xsd:sequence>
          <xsd:attribute name="partNum" type="SKU" use="required"/>
        </xsd:complexType>
      </xsd:element>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:simpleType name="SKU">
    <xsd:restriction base="xsd:string">
      <xsd:pattern value="\d{3}-[A-Z]{2}"/>
    </xsd:restriction>
  </xsd:simpleType>
</xsd:schema>
`

// chainXSD is the recursive schema N = sequence(n:N?): one chain of
// nested elements is valid at any depth, so depth alone sets the cost.
const chainXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="n" type="N"/>
  <xsd:complexType name="N">
    <xsd:sequence>
      <xsd:element name="n" type="N" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>
`

const commonXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:common"
            xmlns:c="urn:common" elementFormDefault="qualified">
  <xsd:complexType name="Meta">
    <xsd:sequence>
      <xsd:element name="id" type="xsd:string"/>
      <xsd:element name="rev" type="xsd:positiveInteger" minOccurs="0"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>
`

const tenantXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:%[1]s"
            xmlns:c="urn:common" elementFormDefault="qualified">
  <xsd:import namespace="urn:common" schemaLocation="lib/common.xsd"/>
  <xsd:element name="doc">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="meta" type="c:Meta"/>
        <xsd:element name="body" type="xsd:string" minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
      <xsd:attribute name="lang" type="xsd:language"/>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
`

// TenantName is the registry name of tenant i.
func TenantName(i int) string { return fmt.Sprintf("t%03d", i) }

// WriteSchemas fills dir with the schema set every workload boots over:
// po.xsd, chain.xsd, lib/common.xsd and the tenant schemas importing it.
// The set does not depend on the seed, so set-up time compares across
// seeds and workloads.
func WriteSchemas(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, "lib"), 0o755); err != nil {
		return err
	}
	files := map[string]string{
		"po.xsd":         poXSD,
		"chain.xsd":      chainXSD,
		"lib/common.xsd": commonXSD,
	}
	for i := 0; i < Tenants; i++ {
		files[TenantName(i)+".xsd"] = fmt.Sprintf(tenantXSD, TenantName(i))
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}
