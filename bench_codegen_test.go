package repro

// E14 — ahead-of-time compiled validators (DESIGN.md §14): repeated
// whole-document validation and decode through the generated pogen
// package against a warm interpreted Validator and binder.

import (
	"testing"

	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/gen/pogen"
	"repro/internal/validator"
)

// BenchmarkE14_GeneratedValidate is the end-to-end comparison: repeated
// whole-document validation of a 100-item purchase order through the
// generated pogen.Validate vs one warm interpreted Validator over the
// same parsed document.
func BenchmarkE14_GeneratedValidate(b *testing.B) {
	doc, err := dom.Parse(largePOSource(100))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := pogen.Validate(doc); !res.OK() {
				b.Fatal(res.Err())
			}
		}
	})
	b.Run("interp", func(b *testing.B) {
		b.ReportAllocs()
		v := validator.New(poSchema(b), nil)
		for i := 0; i < b.N; i++ {
			if res := v.ValidateDocument(doc); !res.OK() {
				b.Fatal(res.Err())
			}
		}
	})
}

// BenchmarkE14_GeneratedDecode compares the specialized one-pass
// validate+decode against the generic binder on the paper's Fig. 1
// document.
func BenchmarkE14_GeneratedDecode(b *testing.B) {
	doc, err := dom.Parse(largePOSource(100))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			val, res := pogen.Decode(doc)
			if val == nil || !res.OK() {
				b.Fatal(res.Err())
			}
		}
	})
	b.Run("interp", func(b *testing.B) {
		b.ReportAllocs()
		bd := bind.New(poSchema(b), nil)
		for i := 0; i < b.N; i++ {
			val, res := bd.DecodeDocument(doc)
			if val == nil || !res.OK() {
				b.Fatal(res.Err())
			}
		}
	})
}
