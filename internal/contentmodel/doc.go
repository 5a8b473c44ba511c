// Package contentmodel compiles XML Schema content models (particles:
// element declarations, wildcards, and sequence/choice/all groups with
// occurrence constraints) into matchers over sequences of child-element
// names.
//
// There is one matcher, Glushkov: a position automaton built with the
// Aho–Sethi–Ullman followpos construction (the algorithm the paper's §6
// uses for its generated preprocessor), with one position per leaf
// occurrence whatever the model's size. Occurrence bounds other than 1,
// ?, * and + become counters, and an all group a member bitset, in the
// run's state rather than copies of their particles: follow edges carry
// enter, loop, exit and member operations with their guards (the counter
// automata of Kilpeläinen & Tuhkanen, and of Gelade, Gyssens & Martens).
// A run steps a small set of configurations — a position plus its scope
// values — deduplicated, pruned by dominance and capped; a model with no
// counter and no all group steps bare position sets. The automaton also
// performs the Unique Particle Attribution (determinism) check, on every
// model, reasoning over counter guard classes rather than counter values.
//
// For an accepted sequence the matcher returns the leaf particle each
// child matched — which is how the validator assigns types to children,
// and how the P-XML preprocessor decides which V-DOM constructor argument
// a child becomes.
//
// # Lazy-DFA execution
//
// The Glushkov matcher additionally supports deterministic execution: a
// lazily subset-constructed DFA over alphabet classes, so stepping a
// symbol is an array walk instead of a configuration-set step. For
// element models (EnableDFA) a class is an element name, by the
// schema-wide Interner's dense symbol IDs, or a wildcard-admission
// bucket; for patterns (CompilePattern, whose leaves are rune ranges) it
// is the runes the same leaves admit, by an ASCII table and a binary
// search above it. States are memoized configuration sets, built on
// demand and shared by every match over the automaton; past its budget
// of states and configuration words a match falls back mid-sequence to
// the NFA stepper, reseeded from the DFA state's own configuration set.
// Each Run carries its own state budget (Run.ResetLimit). A Run may also
// step the NFA throughout
// (StartNFA). The caller enables the DFA only for models that pass the
// UPA check (package xsd does, in ComplexType.Matcher), which is what
// makes its verdicts, leaf assignments and MatchError messages
// byte-identical to the NFA's (enforced by the differential tests and
// FuzzDFAContentModel). Patterns need no such gate: only their verdict
// matters, and a run past the configuration cap is ErrConfigCap.
//
// # Language inclusion
//
// Beyond matching single sequences, Includes decides whether one
// compiled model accepts every word another does — a product subset
// construction over the two automata's configuration sets, stepped by the
// matcher's own step function and explored over a finite alphabet drawn
// from both models' symbols plus per-namespace wildcard probes, under an
// explicit state budget (ErrInclusionBudget) that turns pathological
// blowups into a conservative "not provable" instead of a hang. The
// schema-evolution classifier (package compat) is built on it.
//
// # Role in the pipeline
//
// contentmodel is the shared automaton layer of the pipeline (xsd parse →
// normalize → contentmodel → codegen/vdom → validator → pxml): package
// xsd lowers its schema particles into this package's Particle form, and
// the compiled automata serve the runtime validator, the vdom runtime's
// mixed-content checks, the P-XML preprocessor's static checks, the
// schema-evolution classifier's inclusion checks, and the DTD baseline
// alike, and package xsdregex lowers pattern facets onto it.
//
// # Concurrency
//
// Compilation (CompileGlushkov, CompilePattern) is a pure function of its
// input particle; callers own synchronization of the particle tree while
// building it. Outside this package package xsd compiles each complex
// type's model once and shares it, and package xsdregex compiles
// patterns. The compiled automaton, and a Pattern, is safe for
// concurrent use: Glushkov.Match keeps per-call state on the stack,
// and the lazy DFA fills its transition table under an internal mutex
// with atomically published edges, so a single automaton may serve any
// number of concurrent Match calls and Runs — the property the xsd
// package's once-guarded Matcher relies on. EnableDFA itself must happen
// before the automaton's Runs are shared (xsd calls it inside a
// sync.Once). A Run is single-owner and must not be shared or interleaved
// between validation frames; after reporting an error it panics on
// further use until Reset.
package contentmodel
