package repro

// A generated package is validated and decoded by the interpreter over
// its runtime schema: validator.New(pkg.RT.Schema, nil) and
// bind.New(pkg.RT.Schema, nil). The fuzzer below holds that path to the
// interpreter over the schema the package was generated from, so a
// package whose embedded schema drifts from its source, or whose runtime
// schema loads differently, shows up as a diverging verdict.

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/bind"
	"repro/internal/gen/derivgen"
	"repro/internal/gen/evolvedgen"
	"repro/internal/gen/mixgen"
	"repro/internal/gen/nsgen"
	"repro/internal/gen/pogen"
	"repro/internal/gen/unqualgen"
	"repro/internal/gen/wildgen"
	"repro/internal/gen/wmlgen"
	"repro/internal/schemas"
	"repro/internal/validator"
	"repro/internal/vdom"
	"repro/internal/wml"
	"repro/internal/xsd"
)

// genPackage is one checked-in generated package and the schema source
// it was generated from.
type genPackage struct {
	name   string
	source string
	rt     *vdom.Runtime
}

var genPackages = []genPackage{
	{"pogen", schemas.PurchaseOrderXSD, pogen.RT},
	{"evolvedgen", schemas.EvolvedPurchaseOrderXSD, evolvedgen.RT},
	{"derivgen", schemas.AddressDerivationXSD, derivgen.RT},
	{"wmlgen", wml.Schema, wmlgen.RT},
	{"nsgen", schemas.NamespacedOrderXSD, nsgen.RT},
	{"mixgen", schemas.ComplexGroupsXSD, mixgen.RT},
	{"wildgen", schemas.WildcardEnvelopeXSD, wildgen.RT},
	{"unqualgen", schemas.UnqualifiedOrderXSD, unqualgen.RT},
}

// genCorpus is the curated corpus every package is fuzzed from: all
// instances of the stream/DOM and binding differentials, of every
// schema (a document of another schema exercises the rejecting paths),
// plus the purchase-order mutations. Keys are sorted for deterministic
// seeding.
func genCorpus() []string {
	merged := map[string]string{}
	for _, tc := range append(append([]diffCase{}, diffCases...), bindCases...) {
		for k, v := range tc.instances {
			merged[tc.name+"/"+k] = v
		}
	}
	for _, m := range poMutations {
		merged["mutation/"+m.name] = m.xmlOutput
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = merged[k]
	}
	return out
}

// FuzzGeneratedValidator drives arbitrary bytes through every generated
// package's runtime-schema validator and through the interpreted walk
// over the package's source schema, demanding identical verdicts and,
// for valid inputs, identical decoded JSON.
func FuzzGeneratedValidator(f *testing.F) {
	type pair struct {
		name            string
		srcSchema       *xsd.Schema
		rtSchema        *xsd.Schema
		srcBind, rtBind *bind.Binder
	}
	var pairs []pair
	for _, pkg := range genPackages {
		schema, err := xsd.ParseString(pkg.source, nil)
		if err != nil {
			f.Fatalf("%s: %v", pkg.name, err)
		}
		pairs = append(pairs, pair{
			name:      pkg.name,
			srcSchema: schema,
			srcBind:   bind.New(schema, nil),
			rtSchema:  pkg.rt.Schema,
			rtBind:    bind.New(pkg.rt.Schema, nil),
		})
	}
	for _, src := range genCorpus() {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		for _, p := range pairs {
			_, srcRes := validator.ValidateBytes(p.srcSchema, src)
			_, rtRes := validator.ValidateBytes(p.rtSchema, src)
			assertSameResult(t, p.name, srcRes, rtRes)
			if !srcRes.OK() {
				continue
			}
			srcVal, _ := p.srcBind.DecodeBytes(src)
			rtVal, _ := p.rtBind.DecodeBytes(src)
			if (srcVal == nil) != (rtVal == nil) {
				t.Errorf("%s: decode nil-ness diverged", p.name)
				continue
			}
			if srcVal != nil && !bytes.Equal(p.srcBind.JSON(srcVal), p.rtBind.JSON(rtVal)) {
				t.Errorf("%s: decoded JSON diverged", p.name)
			}
		}
	})
}
