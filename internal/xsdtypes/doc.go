// Package xsdtypes implements the built-in simple types of XML Schema
// Part 2: Datatypes — lexical parsing, value spaces, ordering, canonical
// forms, whitespace processing and constraining facets.
//
// The paper's V-DOM maps "Xml Schema simple types ... to primitive types"
// (transformation rule 8) and concedes that facet checks on restricted
// simple types remain dynamic; this package is that dynamic layer, shared
// by the runtime validator, the schema parser and the generated V-DOM
// bindings.
//
// # Role in the pipeline
//
// xsdtypes is a leaf dependency of the pipeline (xsd parse → normalize →
// contentmodel → codegen/vdom → validator → pxml): package xsd builds
// its simple-type definitions on these built-ins, and every layer that
// checks a lexical value — validator, vdom setters, pxml's static
// checks — funnels through Parse and the Plans here.
//
// # Folded checks
//
// Builtin.Parse checks a valid value against the built-in's Plan, its
// derivation chain folded at package init into one Facets value (the
// tightest bounds, lengths and digits), the enumerations' intersection
// as a keyed set, and one pattern group per step; package xsd folds each
// user type's facets onto its base's plan. Facets.Check checks the
// folded Facets as it checks each step of the walk. Only a value the
// plan rejects walks the chain (ParseNormalized, then each step's Check
// and Facets.Check, root-most first), and that walk alone formats the
// error, so the text does not depend on the fold.
//
// # Concurrency
//
// The built-in registry and plans are populated at package init and
// read-only afterwards; Builtin values, Facets, Plans and parsed Values
// are immutable.
// All parsing and facet checking is pure (including the precompiled
// pattern facets, see package xsdregex), so everything in this package
// may be used from any number of goroutines without synchronization.
package xsdtypes
