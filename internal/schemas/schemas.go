package schemas

// PurchaseOrderXSD is the purchase order schema of the paper's Figures 2
// and 3 (from the XML Schema Primer): purchaseOrder/comment global
// elements, PurchaseOrderType, USAddress, Items with an anonymous item
// type, an anonymous quantity restriction, and the SKU pattern type.
const PurchaseOrderXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">

  <xsd:annotation>
    <xsd:documentation xml:lang="en">
      Purchase order schema for Example.com.
      Copyright 2000 Example.com. All rights reserved.
    </xsd:documentation>
  </xsd:annotation>

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

// PurchaseOrderDoc is the instance document of the paper's Figure 1.
const PurchaseOrderDoc = `<?xml version="1.0"?>
<purchaseOrder orderDate="1999-10-20">
  <shipTo country="US">
    <name>Alice Smith</name>
    <street>123 Maple Street</street>
    <city>Mill Valley</city>
    <state>CA</state>
    <zip>90952</zip>
  </shipTo>
  <billTo country="US">
    <name>Robert Smith</name>
    <street>8 Oak Avenue</street>
    <city>Old Town</city>
    <state>PA</state>
    <zip>95819</zip>
  </billTo>
  <comment>Hurry, my lawn is going wild</comment>
  <items>
    <item partNum="872-AA">
      <productName>Lawnmower</productName>
      <quantity>1</quantity>
      <USPrice>148.95</USPrice>
      <comment>Confirm this is electric</comment>
    </item>
    <item partNum="926-AA">
      <productName>Baby Monitor</productName>
      <quantity>1</quantity>
      <USPrice>39.98</USPrice>
      <shipDate>1999-05-21</shipDate>
    </item>
  </items>
</purchaseOrder>
`

// EvolvedPurchaseOrderXSD is the paper's §3 evolution of
// PurchaseOrderType: the shipTo/billTo pair becomes a choice between a
// single address (singAddr) and a two-address element (twoAddr). Used by
// the naming-scheme experiments (E6).
const EvolvedPurchaseOrderXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">

  <xsd:element name="purchaseOrder" type="PurchaseOrderType"/>
  <xsd:element name="comment" type="xsd:string"/>

  <xsd:complexType name="PurchaseOrderType">
    <xsd:sequence>
      <xsd:choice>
        <xsd:element name="singAddr" type="USAddress"/>
        <xsd:element name="twoAddr" type="twoAddress"/>
      </xsd:choice>
      <xsd:element ref="comment" minOccurs="0"/>
      <xsd:element name="items" type="Items"/>
    </xsd:sequence>
    <xsd:attribute name="orderDate" type="xsd:date"/>
  </xsd:complexType>

  <xsd:complexType name="twoAddress">
    <xsd:sequence>
      <xsd:element name="first" type="USAddress"/>
      <xsd:element name="second" type="USAddress"/>
    </xsd:sequence>
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
      <xsd:element name="item" minOccurs="0" maxOccurs="unbounded" type="ItemType"/>
    </xsd:sequence>
  </xsd:complexType>

  <xsd:complexType name="ItemType">
    <xsd:sequence>
      <xsd:element name="productName" type="xsd:string"/>
      <xsd:element name="quantity" type="xsd:positiveInteger"/>
      <xsd:element name="USPrice" type="xsd:decimal"/>
    </xsd:sequence>
    <xsd:attribute name="partNum" type="xsd:string" use="required"/>
  </xsd:complexType>

</xsd:schema>
`

// AddressDerivationXSD is the paper's §3 type-extension example: Address
// extended to USAddress, plus the substitution-group example (shipComment
// and customerComment substituting for comment) and an abstract element.
const AddressDerivationXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">

  <xsd:complexType name="Address">
    <xsd:sequence>
      <xsd:element name="name" type="xsd:string"/>
      <xsd:element name="street" type="xsd:string"/>
      <xsd:element name="city" type="xsd:string"/>
    </xsd:sequence>
  </xsd:complexType>

  <xsd:complexType name="USAddress">
    <xsd:complexContent>
      <xsd:extension base="Address">
        <xsd:sequence>
          <xsd:element name="state" type="xsd:string"/>
          <xsd:element name="zip" type="xsd:string"/>
        </xsd:sequence>
      </xsd:extension>
    </xsd:complexContent>
  </xsd:complexType>

  <xsd:element name="address" type="Address"/>

  <xsd:element name="comment" type="xsd:string"/>
  <xsd:element name="shipComment" type="xsd:string" substitutionGroup="comment"/>
  <xsd:element name="customerComment" type="xsd:string" substitutionGroup="comment"/>

  <xsd:element name="note" abstract="true" type="xsd:string"/>
  <xsd:element name="shipNote" type="xsd:string" substitutionGroup="note"/>

  <xsd:complexType name="CommentBlock">
    <xsd:sequence>
      <xsd:element ref="comment" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="commentBlock" type="CommentBlock"/>

  <xsd:complexType name="NoteBlock">
    <xsd:sequence>
      <xsd:element ref="note" minOccurs="0" maxOccurs="unbounded"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="noteBlock" type="NoteBlock"/>

</xsd:schema>
`

// NamespacedOrderXSD is a purchase-order variant with a target namespace
// and qualified local elements — exercising the namespace handling the
// paper's examples (which live in no namespace) do not.
const NamespacedOrderXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:po="urn:example:po" targetNamespace="urn:example:po"
    elementFormDefault="qualified">

  <xsd:element name="order" type="po:OrderType"/>

  <xsd:complexType name="OrderType">
    <xsd:sequence>
      <xsd:element name="id" type="xsd:positiveInteger"/>
      <xsd:element name="note" type="xsd:string" minOccurs="0"/>
    </xsd:sequence>
    <xsd:attribute name="priority" type="xsd:int"/>
  </xsd:complexType>

</xsd:schema>
`

// UnqualifiedOrderXSD has a target namespace and leaves its local
// elements unqualified (the XSD default elementFormDefault): the global
// order and note are in urn:example:unq, while the local id and line are
// in no namespace, so a writer must undeclare the default namespace on
// them and declare it again on a global note referenced inside a line.
const UnqualifiedOrderXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"
    xmlns:u="urn:example:unq" targetNamespace="urn:example:unq">

  <xsd:element name="order" type="u:OrderType"/>
  <xsd:element name="note" type="xsd:string"/>

  <xsd:complexType name="OrderType">
    <xsd:sequence>
      <xsd:element name="id" type="xsd:positiveInteger"/>
      <xsd:element name="line" minOccurs="0" maxOccurs="unbounded">
        <xsd:complexType>
          <xsd:sequence>
            <xsd:element ref="u:note"/>
          </xsd:sequence>
        </xsd:complexType>
      </xsd:element>
    </xsd:sequence>
  </xsd:complexType>

</xsd:schema>
`

// ComplexGroupsXSD exercises the normal form's group promotion paths in
// one vocabulary: a choice whose alternative is an unnamed sequence (the
// paper's nested-group case), a repeated unnamed sequence (a "list
// expression"), and an element with an anonymous complex type.
const ComplexGroupsXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">

  <xsd:element name="report" type="Report"/>

  <xsd:complexType name="Report">
    <xsd:sequence>
      <xsd:element name="title" type="xsd:string"/>
      <xsd:choice>
        <xsd:element name="summary" type="xsd:string"/>
        <xsd:sequence>
          <xsd:element name="first" type="xsd:string"/>
          <xsd:element name="last" type="xsd:string"/>
        </xsd:sequence>
      </xsd:choice>
      <xsd:sequence minOccurs="0" maxOccurs="unbounded">
        <xsd:element name="key" type="xsd:string"/>
        <xsd:element name="value" type="xsd:string"/>
      </xsd:sequence>
      <xsd:element name="entry" minOccurs="0" maxOccurs="unbounded">
        <xsd:complexType>
          <xsd:sequence>
            <xsd:element name="when" type="xsd:date"/>
          </xsd:sequence>
          <xsd:attribute name="id" type="xsd:ID"/>
        </xsd:complexType>
      </xsd:element>
    </xsd:sequence>
    <xsd:attribute name="version" type="xsd:positiveInteger"/>
  </xsd:complexType>

</xsd:schema>
`

// WildcardEnvelopeXSD exercises the wildcard surfaces the paper's
// examples avoid: a lax xsd:any content model (known globals validate,
// foreign content passes), an open attribute set via xsd:anyAttribute,
// and an element of type xsd:anyType.
const WildcardEnvelopeXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">

  <xsd:element name="envelope" type="Envelope"/>
  <xsd:element name="extra" type="xsd:string"/>
  <xsd:element name="record" type="Record"/>
  <xsd:element name="payload" type="xsd:anyType"/>

  <xsd:complexType name="Envelope">
    <xsd:sequence>
      <xsd:any minOccurs="0" maxOccurs="unbounded" processContents="lax"/>
    </xsd:sequence>
    <xsd:attribute name="version" type="xsd:positiveInteger"/>
    <xsd:anyAttribute/>
  </xsd:complexType>

  <xsd:complexType name="Record">
    <xsd:sequence>
      <xsd:element name="key" type="xsd:string"/>
      <xsd:element name="value" type="xsd:string"/>
    </xsd:sequence>
  </xsd:complexType>

</xsd:schema>
`

// WildcardEnvelopeDoc is a valid instance of WildcardEnvelopeXSD mixing
// known globals with foreign content under the lax wildcard.
const WildcardEnvelopeDoc = `<?xml version="1.0"?>
<envelope version="2" x-trace="abc">
  <extra>first note</extra>
  <record>
    <key>color</key>
    <value>green</value>
  </record>
  <unknown attr="kept"><nested/>text</unknown>
</envelope>
`

// NamedGroupXSD is the paper's explicit-naming example: the address choice
// is pulled into a named group AddressGroup (§3).
const NamedGroupXSD = `<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">

  <xsd:group name="AddressGroup">
    <xsd:choice>
      <xsd:element name="singAddr" type="xsd:string"/>
      <xsd:element name="twoAddr" type="xsd:string"/>
    </xsd:choice>
  </xsd:group>

  <xsd:element name="comment" type="xsd:string"/>

  <xsd:complexType name="PurchaseOrderType">
    <xsd:sequence>
      <xsd:group ref="AddressGroup"/>
      <xsd:element ref="comment" minOccurs="0"/>
      <xsd:element name="items" type="xsd:string"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="purchaseOrder" type="PurchaseOrderType"/>

</xsd:schema>
`
