package dtd

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/validator"
)

// Violation is one DTD validity error.
type Violation = validator.Violation

// Result collects violations.
type Result = validator.Result

// Validate checks a DOM document against the DTD: the root element must
// be the DOCTYPE's element type, and the document must be valid against
// the DTD's XML Schema lowering, which checks content models, attribute
// types and defaults, and ID/IDREF integrity.
func Validate(d *DTD, doc *dom.Document) *Result {
	res := validator.New(d.schema, nil).ValidateDocument(doc)
	if root := doc.DocumentElement(); root != nil && root.TagName() != d.RootName {
		v := Violation{Path: "/" + root.TagName(), Msg: fmt.Sprintf("root element is %q, DOCTYPE requires %q", root.TagName(), d.RootName)}
		res.Violations = append([]Violation{v}, res.Violations...)
	}
	return res
}

// ValidateDocument parses the document's own DOCTYPE and validates
// against it.
func ValidateDocument(doc *dom.Document) (*Result, error) {
	if doc.Doctype == nil {
		return nil, fmt.Errorf("dtd: document has no DOCTYPE")
	}
	d, err := Parse(doc.Doctype.Name, doc.Doctype.InternalSubset)
	if err != nil {
		return nil, err
	}
	return Validate(d, doc), nil
}
