package validator_test

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// exampleXSD is the small schema shared by the package examples.
const exampleXSD = `<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="note" type="NoteType"/>
  <xsd:complexType name="NoteType">
    <xsd:sequence>
      <xsd:element name="to" type="xsd:string"/>
      <xsd:element name="body" type="xsd:string"/>
    </xsd:sequence>
  </xsd:complexType>
</xsd:schema>`

// ExampleNew builds one Validator and reuses it. The content models are
// compiled once by the schema, so the second run (or a second Validator)
// recompiles nothing.
func ExampleNew() {
	schema, err := xsd.ParseString(exampleXSD, nil)
	if err != nil {
		panic(err)
	}
	v := validator.New(schema, nil)
	doc, _ := dom.ParseString(`<note><to>Ada</to><body>hi</body></note>`)
	fmt.Println("first run ok:", v.ValidateDocument(doc).OK())
	fmt.Println("second run ok:", v.ValidateDocument(doc).OK())
	// Output:
	// first run ok: true
	// second run ok: true
}

// ExampleValidator_ValidateDocument shows the violation report for an
// invalid document.
func ExampleValidator_ValidateDocument() {
	schema, err := xsd.ParseString(exampleXSD, nil)
	if err != nil {
		panic(err)
	}
	v := validator.New(schema, nil)
	doc, _ := dom.ParseString(`<note><body>hi</body></note>`)
	res := v.ValidateDocument(doc)
	fmt.Println("ok:", res.OK())
	for _, viol := range res.Violations {
		fmt.Println(viol.Error())
	}
	// Output:
	// ok: false
	// /note/body: unexpected element body at position 0; expected to
}

// ExampleValidator_ValidateBatch validates several documents through the
// worker pool; results are index-aligned with the input slice.
func ExampleValidator_ValidateBatch() {
	schema, err := xsd.ParseString(exampleXSD, nil)
	if err != nil {
		panic(err)
	}
	v := validator.New(schema, nil)
	sources := []string{
		`<note><to>Ada</to><body>hi</body></note>`,
		`<note><body>out of order</body><to>Ada</to></note>`,
		`<note><to>Grace</to><body>hello</body></note>`,
	}
	docs := make([]*dom.Document, len(sources))
	for i, src := range sources {
		docs[i], _ = dom.ParseString(src)
	}
	for i, res := range v.ValidateBatch(docs) {
		fmt.Printf("doc %d ok: %v\n", i, res.OK())
	}
	// Output:
	// doc 0 ok: true
	// doc 1 ok: false
	// doc 2 ok: true
}
