package bind

import (
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

// typedAttrs parses the element's attributes into the declared value
// spaces (wildcard-admitted ones stay strings) and materializes absent
// defaulted or fixed attributes, so decoded values are self-contained.
func (b *Binder) typedAttrs(ct *xsd.ComplexType, raw []validator.Attr) []Attr {
	var out []Attr
	for _, a := range raw {
		use := ct.FindAttributeUse(a.Name)
		if use == nil || use.Prohibited {
			out = append(out, Attr{Name: a.Name, Value: xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value}})
			continue
		}
		val, err := use.Decl.Type.Parse(a.Value)
		if err != nil {
			// Only reachable on invalid documents (the verdict carries
			// the violation); keep the lexical form.
			val = xsdtypes.Value{Kind: xsdtypes.VString, Str: a.Value}
		}
		out = append(out, Attr{Name: a.Name, Value: val})
	}
	for _, use := range ct.AttributeUses {
		def := use.Default
		if def == nil {
			def = use.Fixed
		}
		if use.Prohibited || def == nil {
			continue
		}
		present := false
		for _, a := range raw {
			if a.Name == use.Decl.Name {
				present = true
				break
			}
		}
		if present {
			continue
		}
		if val, err := use.Decl.Type.Parse(*def); err == nil {
			out = append(out, Attr{Name: use.Decl.Name, Value: val})
		}
	}
	return out
}
