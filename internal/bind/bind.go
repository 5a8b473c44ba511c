package bind

import (
	"slices"

	"repro/internal/validator"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// Binder decodes XML into typed values (and JSON) and marshals values
// back, always through the schema's validator. A Binder is immutable and
// safe for concurrent use; it steps the same compiled content models as
// the validator, which the schema owns.
type Binder struct {
	schema *xsd.Schema
	v      *validator.Validator
	sv     *validator.StreamValidator
	plan   *Plan
}

// New builds a binder over a resolved schema. v may be nil, in which case
// a validator with default options is created; passing the serving layer's
// validator shares its options.
func New(schema *xsd.Schema, v *validator.Validator) *Binder {
	if v == nil {
		v = validator.New(schema, nil)
	}
	return &Binder{schema: schema, v: v, sv: v.Stream(), plan: NewPlan(schema)}
}

// Plan returns the derived binding plan.
func (b *Binder) Plan() *Plan { return b.plan }

// Validator returns the binder's validator.
func (b *Binder) Validator() *validator.Validator { return b.v }

// Schema returns the schema the binder was built from.
func (b *Binder) Schema() *xsd.Schema { return b.schema }

// typedAttrs takes the element's attributes in the declared value
// spaces (wildcard-admitted ones stay strings) and materializes absent
// defaulted or fixed attributes, so decoded values are self-contained.
// The list comes from s.
func typedAttrs(s *slab, ct *xsd.ComplexType, raw []validator.Attr) []Attr {
	out := s.attrSpace(len(raw) + len(ct.AttributeUses))
	for _, a := range raw {
		if !a.Typed {
			// Undeclared, or unparsable (only on invalid documents,
			// whose verdict carries the violation): keep the lexical form.
			a.Val = xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value}
		}
		out = append(out, Attr{Name: a.Name, Value: a.Val})
	}
	for _, use := range ct.AttributeUses {
		if use.Prohibited || slices.ContainsFunc(raw, func(a validator.Attr) bool { return a.Name == use.Decl.Name }) {
			continue
		}
		if val, ok := use.DefaultValue(); ok {
			out = append(out, Attr{Name: use.Decl.Name, Value: val})
		}
	}
	return s.keepAttrs(out)
}
