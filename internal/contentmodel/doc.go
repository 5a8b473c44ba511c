// Package contentmodel compiles XML Schema content models (particles:
// element declarations, wildcards, and sequence/choice/all groups with
// occurrence constraints) into matchers over sequences of child-element
// names.
//
// Two matchers are provided and cross-checked:
//
//   - Glushkov: a position automaton built with the Aho–Sethi–Ullman
//     followpos construction (the algorithm the paper's §6 uses for its
//     generated preprocessor), simulated over position sets. It also
//     performs the Unique Particle Attribution (determinism) check.
//   - Interp: a backtracking interpreter with memoization that handles
//     arbitrary occurrence bounds and all-groups natively.
//
// Both return, for an accepted sequence, the leaf particle each child
// matched — which is how the validator assigns types to children, and how
// the P-XML preprocessor decides which V-DOM constructor argument a child
// becomes.
//
// # Lazy-DFA execution
//
// The Glushkov matcher additionally supports deterministic execution:
// EnableDFA attaches a lazily subset-constructed DFA whose alphabet is
// the schema-wide Interner's dense symbol IDs (plus wildcard-admission
// bucket classes), so stepping a child is an array walk instead of a
// position-set scan. States are memoized on demand and shared by every
// Run over the automaton; each Run carries its own budget
// (Run.ResetLimit) and, when it needs a state beyond it, falls back
// mid-sequence to the NFA stepper, reseeded from the DFA state's own
// position set. A Run may also step the NFA throughout (StartNFA). The
// caller enables the DFA only for models that pass the UPA check
// (package xsd does, in ComplexType.Matcher), which is what makes its
// verdicts, leaf assignments and MatchError messages byte-identical to
// the NFA's (enforced by the differential tests and FuzzDFAContentModel).
//
// # Language inclusion
//
// Beyond matching single sequences, Includes decides whether one
// compiled model accepts every word another does — a product subset
// construction over the two Glushkov automata, explored over a finite
// alphabet drawn from both models' symbols plus per-namespace wildcard
// probes, under an explicit state budget (ErrInclusionBudget) that turns
// pathological blowups into a conservative "not provable" instead of a
// hang. The schema-evolution classifier (package compat) is built on it.
//
// # Role in the pipeline
//
// contentmodel is the shared automaton layer of the pipeline (xsd parse →
// normalize → contentmodel → codegen/vdom → validator → pxml): package
// xsd lowers its schema particles into this package's Particle form, and
// the compiled matchers serve the runtime validator, the vdom runtime's
// mixed-content checks, the P-XML preprocessor's static checks, the
// schema-evolution classifier's inclusion checks, and the DTD baseline
// alike.
//
// # Concurrency
//
// Compilation (CompileGlushkov, NewInterp, Compile) is a pure function of
// its input particle; callers own synchronization of the particle tree
// while building it. Outside this package and the DTD baseline, only
// package xsd compiles: each complex type's model is compiled once there
// and shared. The compiled matchers are safe for concurrent use:
// Glushkov.Match and Interp.Match keep per-call state on the stack, and
// the lazy DFA fills its transition table under an internal mutex with
// atomically published edges, so a single matcher instance may serve any
// number of concurrent Match calls and Runs — the property the xsd
// package's once-guarded Matcher relies on. EnableDFA itself must happen
// before the matcher's Runs are shared (xsd calls it inside a
// sync.Once). A Run is single-owner
// and must not be shared or interleaved between validation frames; after
// reporting an error it panics on further use until Reset.
package contentmodel
