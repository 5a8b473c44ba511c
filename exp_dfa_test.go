package repro

// E10 — differential testing of the lazy-DFA content-model executor
// against the NFA position-set stepper. The DFA path must be
// observationally byte-identical: same leaf assignment for every accepted
// child, same rejection step, same MatchError positions and messages, on
// every content model of every bundled schema — and the full validators
// (DOM and streaming) must produce identical Results with the DFA on and
// off.

import (
	"math/rand"
	"testing"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/validator"
	"repro/internal/xsd"
)

// bundledSchemas is every schema the repository ships: the paper's
// examples plus the streaming feature-coverage schema.
var bundledSchemas = map[string]string{
	"purchase-order":         schemas.PurchaseOrderXSD,
	"evolved-purchase-order": schemas.EvolvedPurchaseOrderXSD,
	"address-derivation":     schemas.AddressDerivationXSD,
	"namespaced-order":       schemas.NamespacedOrderXSD,
	"complex-groups":         schemas.ComplexGroupsXSD,
	"named-group":            schemas.NamedGroupXSD,
	"stream-features":        streamFeaturesXSD,
}

// schemaGlushkovs compiles every complex type reachable from the schema's
// global components and returns the Glushkov content models.
func schemaGlushkovs(t *testing.T, s *xsd.Schema) []*contentmodel.Glushkov {
	t.Helper()
	seen := map[*xsd.ComplexType]bool{}
	var out []*contentmodel.Glushkov
	var visitType func(ty xsd.Type)
	var visitParticle func(p *xsd.Particle)
	visitType = func(ty xsd.Type) {
		ct, ok := ty.(*xsd.ComplexType)
		if !ok || ct == nil || seen[ct] {
			return
		}
		seen[ct] = true
		out = append(out, ct.Matcher(s))
		visitParticle(ct.Particle)
	}
	visitParticle = func(p *xsd.Particle) {
		if p == nil {
			return
		}
		if p.Element != nil {
			visitType(p.Element.Type)
		}
		if p.Group != nil {
			for _, c := range p.Group.Particles {
				visitParticle(c)
			}
		}
	}
	for _, decl := range s.Elements {
		visitType(decl.Type)
	}
	for _, ty := range s.Types {
		visitType(ty)
	}
	return out
}

// trialStep reports whether a known-good prefix extended by next still
// steps (fresh NFA replay — a dead Run cannot be probed).
func trialStep(g *contentmodel.Glushkov, prefix []contentmodel.Symbol, next contentmodel.Symbol) bool {
	r := g.StartNFA()
	for _, s := range prefix {
		if _, err := r.Step(s); err != nil {
			return false
		}
	}
	_, err := r.Step(next)
	return err == nil
}

// generateSequences yields valid and invalid child sequences for a model:
// greedy valid walks over the model's alphabet, truncations, single-symbol
// substitutions, and random noise including foreign names.
func generateSequences(g *contentmodel.Glushkov, rng *rand.Rand) [][]contentmodel.Symbol {
	alpha := g.Alphabet()
	pool := append(append([]contentmodel.Symbol{}, alpha...),
		contentmodel.Symbol{Local: "zzz-unknown"},
		contentmodel.Symbol{Space: "urn:not-in-schema", Local: "alien"},
	)
	var seqs [][]contentmodel.Symbol
	for trial := 0; trial < 5; trial++ {
		var seq []contentmodel.Symbol
		for len(seq) < 8 {
			found := false
			for _, i := range rng.Perm(len(alpha)) {
				if trialStep(g, seq, alpha[i]) {
					seq = append(seq, alpha[i])
					found = true
					break
				}
			}
			if !found || rng.Intn(4) == 0 {
				break
			}
		}
		seqs = append(seqs, seq)
		if n := len(seq); n > 0 {
			mut := append([]contentmodel.Symbol{}, seq...)
			mut[rng.Intn(n)] = pool[rng.Intn(len(pool))]
			seqs = append(seqs, mut, seq[:rng.Intn(n)])
		}
	}
	for trial := 0; trial < 5; trial++ {
		var seq []contentmodel.Symbol
		for i, n := 0, rng.Intn(5); i < n; i++ {
			seq = append(seq, pool[rng.Intn(len(pool))])
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// diffRun drives one sequence through the DFA-backed and NFA runs and
// fails on any observable difference.
func diffRun(t *testing.T, label string, dr, nr *contentmodel.Run, seq []contentmodel.Symbol) {
	t.Helper()
	for i, s := range seq {
		dl, de := dr.Step(s)
		nl, ne := nr.Step(s)
		if (de == nil) != (ne == nil) {
			t.Fatalf("%s step %d (%v): dfa err=%v nfa err=%v", label, i, s, de, ne)
		}
		if de != nil {
			if de.Error() != ne.Error() || de.Index != ne.Index {
				t.Fatalf("%s step %d: errors diverged:\n  dfa: %v\n  nfa: %v", label, i, de, ne)
			}
			return
		}
		if dl != nl {
			t.Fatalf("%s step %d (%v): leaf diverged: %v vs %v", label, i, s, dl.Data, nl.Data)
		}
	}
	de, ne := dr.End(), nr.End()
	if (de == nil) != (ne == nil) {
		t.Fatalf("%s end: dfa err=%v nfa err=%v", label, de, ne)
	}
	if de != nil && de.Error() != ne.Error() {
		t.Fatalf("%s end errors diverged:\n  dfa: %v\n  nfa: %v", label, de, ne)
	}
}

// TestDFAMatchesNFA drives every bundled schema's content models through
// the DFA and NFA steppers with generated valid and invalid child
// sequences, twice per model so both the building and the memoized DFA
// paths are covered.
func TestDFAMatchesNFA(t *testing.T) {
	enabled := 0
	for name, src := range bundledSchemas {
		t.Run(name, func(t *testing.T) {
			schema, err := xsd.ParseString(src, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			models := schemaGlushkovs(t, schema)
			if len(models) == 0 {
				t.Fatalf("no Glushkov content models found")
			}
			rng := rand.New(rand.NewSource(0xd1f))
			for _, g := range models {
				if !g.DFAEnabled() {
					continue // UPA-ambiguous or wildcard-heavy: NFA-only by design
				}
				enabled++
				seqs := generateSequences(g, rng)
				for pass := 0; pass < 2; pass++ {
					for _, seq := range seqs {
						diffRun(t, t.Name(), g.Start(), g.StartNFA(), seq)
					}
				}
			}
		})
	}
	if enabled == 0 {
		t.Fatalf("no bundled content model had the DFA enabled — test is vacuous")
	}
}

// TestValidatorDFAParity runs the full differential corpus (the E8
// diffCases: every bundled schema with valid, invalid and malformed
// instances) through validators with the DFA enabled and disabled, over
// both the DOM and the streaming paths. Results must be identical.
func TestValidatorDFAParity(t *testing.T) {
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := xsd.ParseString(tc.xsdSrc, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			vdfa := validator.New(schema, nil)
			vnfa := validator.New(schema, &validator.Options{DisableDFA: true})
			svdfa := vdfa.Stream()
			svnfa := vnfa.Stream()
			for label, src := range tc.instances {
				assertSameResult(t, label+" (stream)",
					svnfa.ValidateBytes([]byte(src)), svdfa.ValidateBytes([]byte(src)))
				doc, perr := dom.Parse([]byte(src))
				if perr != nil {
					continue // malformed input: no DOM path to compare
				}
				assertSameResult(t, label+" (dom)",
					vnfa.ValidateDocument(doc), vdfa.ValidateDocument(doc))
				doc.Release()
			}
		})
	}
}

// TestValidatorDFABudgetParity repeats the corpus with a pathologically
// small DFA state budget so the mid-document fallback path is exercised
// end to end.
func TestValidatorDFABudgetParity(t *testing.T) {
	for _, tc := range diffCases {
		t.Run(tc.name, func(t *testing.T) {
			schema, err := xsd.ParseString(tc.xsdSrc, nil)
			if err != nil {
				t.Fatalf("schema: %v", err)
			}
			vtiny := validator.New(schema, &validator.Options{DFAStateBudget: 2})
			vnfa := validator.New(schema, &validator.Options{DisableDFA: true})
			for label, src := range tc.instances {
				assertSameResult(t, label+" (budget=2 stream)",
					vnfa.Stream().ValidateBytes([]byte(src)),
					vtiny.Stream().ValidateBytes([]byte(src)))
			}
		})
	}
}
