package codegen

// The validator back end: GenerateValidator emits a companion file for a
// generated binding package that validates, decodes and marshals documents
// of one schema with straight-line code — every content model unrolled
// into switch statements over its exported DFA (contentmodel.ExportDFA),
// every attribute set and simple-type facet chain compiled to direct
// checks, and a decode/marshal pair that mirrors the generic binder
// without reflection or plan lookups. Cold paths (xsi:type substitutions,
// nilled elements, identity constraints, declarations pruned by the
// instance-corpus pass, models the exporter refuses) delegate to the
// interpreted walk through validator.Sink, which shares the run state, so
// combined verdicts — including MatchError text — are byte-identical to
// validator.ValidateDocument.

import (
	"fmt"
	"go/format"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/normalize"
	"repro/internal/validator"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

// GenerateValidator parses the schema source and emits the compiled
// validator as a single Go source file. It is designed to live next to the
// binding file Generate emits for the same schema and options: the emitted
// code references that file's RT runtime (and so never re-parses the
// schema at init). When opts.Corpus is non-empty, element declarations no
// corpus document reaches are emitted as stubs that delegate to the
// interpreted walk (the pruning pass); every corpus document must be valid
// against the schema.
func GenerateValidator(schemaSource string, opts Options) (string, error) {
	schema, err := xsd.ParseString(schemaSource, nil)
	if err != nil {
		return "", err
	}
	norm, err := normalize.Normalize(schema, opts.Scheme)
	if err != nil {
		return "", err
	}
	v := &valgen{
		schema:    schema,
		norm:      norm,
		names:     AssignNames(norm),
		opts:      opts,
		declVar:   map[*xsd.ElementDecl]string{},
		typeVar:   map[xsd.Type]string{},
		models:    map[*xsd.ComplexType]*modelInfo{},
		parseFns:  map[*xsd.SimpleType]*parseFn{},
		valueVars: map[valueKey]*valueVar{},
	}
	if len(opts.Corpus) > 0 {
		if err := v.observeCorpus(); err != nil {
			return "", err
		}
	}
	v.discover()
	code, err := v.run()
	if err != nil {
		return "", err
	}
	formatted, err := format.Source([]byte(code))
	if err != nil {
		// A formatting failure means the generator emitted invalid Go;
		// return the raw text so the caller can diagnose it.
		return code, fmt.Errorf("codegen: generated validator does not parse: %w", err)
	}
	return string(formatted), nil
}

// valgen carries the discovery and emission state of one validator file.
type valgen struct {
	schema *xsd.Schema
	norm   *normalize.Result
	names  *Names
	opts   Options

	// reached is the corpus-pruning live set; nil disables pruning.
	reached map[*xsd.ElementDecl]bool

	// Handles: package-level vars resolving schema components from RT.
	handles  []handleVar
	declVar  map[*xsd.ElementDecl]string
	declList []*xsd.ElementDecl
	typeVar  map[xsd.Type]string
	typeList []xsd.Type

	models    map[*xsd.ComplexType]*modelInfo
	modelList []*modelInfo

	parseFns  map[*xsd.SimpleType]*parseFn
	parseList []*parseFn

	valueVars map[valueKey]*valueVar
	valueList []*valueVar

	needParticleElem bool
	needWild         bool

	body strings.Builder
	err  error
}

type handleVar struct{ name, expr, comment string }

// modelInfo is one compiled content model: either an exported DFA with a
// static dispatch plan per leaf, or a fallback marker when the exporter
// refused it (the generated code then delegates to the interpreted
// matcher).
type modelInfo struct {
	name     string
	ct       *xsd.ComplexType
	table    *contentmodel.DFATable
	fallback string // non-empty: reason the model is interpreted
	// dispatch[i] lists the gen-time-resolved declarations of leaf i's
	// name set; nil for wildcard leaves (runtime global-element dispatch).
	dispatch [][]leafTarget
}

type leafTarget struct {
	space, local string
	decl         *xsd.ElementDecl
}

// parseFn is one generated simple-type parser. Non-atomic varieties (and
// any chain the emitter cannot unroll) delegate to SimpleType.Parse on the
// type handle, which is behaviorally identical.
type parseFn struct {
	name     string
	st       *xsd.SimpleType
	delegate bool
}

// valueVar is one precomputed fixed/default value, parsed once at init
// with the same generated parser the checks use.
type valueKey struct{ parse, lexical string }

type valueVar struct {
	name    string
	parse   string
	lexical string
}

func (v *valgen) fail(format string, args ...any) {
	if v.err == nil {
		v.err = fmt.Errorf("codegen: "+format, args...)
	}
}

// observeCorpus validates every corpus document with an event observer,
// recording which declarations the interpreted walk reaches.
func (v *valgen) observeCorpus() error {
	v.reached = map[*xsd.ElementDecl]bool{}
	val := validator.New(v.schema, nil)
	for _, cd := range v.opts.Corpus {
		doc, err := dom.ParseString(cd.Source)
		if err != nil {
			return fmt.Errorf("codegen: corpus document %s: %w", cd.Name, err)
		}
		if res := val.ValidateDocumentEvents(doc, reachedDecls(v.reached)); !res.OK() {
			return fmt.Errorf("codegen: corpus document %s is invalid: %s", cd.Name, res.Violations[0].Error())
		}
	}
	return nil
}

// reachedDecls records the governing declaration of every element a walk
// opens. A valid document opens every element it contains, so the set is
// exactly the declarations the corpus reaches.
type reachedDecls map[*xsd.ElementDecl]bool

func (r reachedDecls) OpenElement(e validator.ElementStart) { r[e.Decl] = true }
func (reachedDecls) CloseElement(*xsdtypes.Value)           {}
func (reachedDecls) MixedText(string)                       {}
func (reachedDecls) RawElement(*dom.Element)                {}

// live reports whether a declaration survived the pruning pass.
func (v *valgen) live(d *xsd.ElementDecl) bool {
	return v.reached == nil || v.reached[d]
}

// discover walks the schema from its global element declarations,
// assigning handle vars for every component the generated code references
// and compiling every reachable content model. The walk is deterministic
// (normalized global order, then declaration order within each type), so
// regeneration is byte-stable.
func (v *valgen) discover() {
	for _, d := range v.norm.Elements {
		v.visitDecl(d, fmt.Sprintf("gvElemDecl(%q, %q)", d.Name.Space, d.Name.Local))
	}
}

// visitDecl assigns a handle for one element declaration (idempotent) and,
// when the declaration is live, descends into its governing type.
func (v *valgen) visitDecl(d *xsd.ElementDecl, expr string) {
	if _, ok := v.declVar[d]; ok {
		return
	}
	name := fmt.Sprintf("gvDecl%d", len(v.declList))
	v.declVar[d] = name
	v.declList = append(v.declList, d)
	comment := "element " + d.Name.String()
	if !v.live(d) {
		comment += " (pruned: delegates to the interpreted walk)"
	}
	v.handles = append(v.handles, handleVar{name, expr, comment})
	if v.live(d) {
		v.visitType(d.Type, name+".Type", false)
	}
}

// visitType assigns a handle for one type (idempotent) and descends into
// the components its generated code needs: attribute types, the simple
// content type, the content model and its leaf declarations, and — for
// simple types — the restriction chain down to the built-in wrapper.
// concrete marks expr as already having the handle's static Go type (no
// type assertion needed).
func (v *valgen) visitType(t xsd.Type, expr string, concrete bool) {
	if _, ok := v.typeVar[t]; ok {
		return
	}
	name := fmt.Sprintf("gvT%d", len(v.typeList))
	v.typeVar[t] = name
	v.typeList = append(v.typeList, t)
	switch tt := t.(type) {
	case *xsd.ComplexType:
		if !concrete {
			expr += ".(*xsd.ComplexType)"
		}
		v.handles = append(v.handles, handleVar{name, expr, "complex type " + typeLabel(t)})
		for i, use := range tt.AttributeUses {
			v.visitType(use.Decl.Type, fmt.Sprintf("%s.AttributeUses[%d].Decl.Type", name, i), true)
		}
		switch tt.Kind {
		case xsd.ContentSimple:
			v.visitType(tt.SimpleContentType, name+".SimpleContentType", true)
		case xsd.ContentElementOnly, xsd.ContentMixed:
			v.buildModel(tt)
			v.visitParticle(tt.Particle, name+".Particle", nil)
		}
	case *xsd.SimpleType:
		if !concrete {
			expr += ".(*xsd.SimpleType)"
		}
		v.handles = append(v.handles, handleVar{name, expr, "simple type " + typeLabel(t)})
		// The straight-line parser references every chain level above the
		// built-in wrapper (facet steps) plus the wrapper itself.
		if tt.Builtin == nil && tt.Base != nil {
			v.visitType(tt.Base, name+".Base", true)
		}
	}
}

// visitParticle assigns handles for the element declarations of a content
// model, addressed by their group-index path from the owning type's
// particle (gvParticleElem walks the same path at init).
func (v *valgen) visitParticle(p *xsd.Particle, rootExpr string, idx []int) {
	if p == nil {
		return
	}
	switch {
	case p.Element != nil:
		var b strings.Builder
		fmt.Fprintf(&b, "gvParticleElem(%s", rootExpr)
		for _, i := range idx {
			fmt.Fprintf(&b, ", %d", i)
		}
		b.WriteString(")")
		v.needParticleElem = true
		v.visitDecl(p.Element, b.String())
	case p.Group != nil:
		for i, c := range p.Group.Particles {
			v.visitParticle(c, rootExpr, append(append([]int{}, idx...), i))
		}
	}
}

// buildModel compiles and eagerly determinizes one content model, and
// resolves every leaf name to its governing declaration at generation time
// (mirroring Schema.ResolveChild). Any refusal downgrades the model to the
// interpreted fallback.
func (v *valgen) buildModel(ct *xsd.ComplexType) {
	if _, ok := v.models[ct]; ok {
		return
	}
	mi := &modelInfo{name: fmt.Sprintf("gvM%d", len(v.modelList)), ct: ct}
	v.models[ct] = mi
	v.modelList = append(v.modelList, mi)
	g, err := contentmodel.CompileGlushkov(v.schema.CompileParticle(ct.Particle))
	if err != nil {
		mi.fallback = err.Error()
		return
	}
	table, err := g.ExportDFA(0)
	if err != nil {
		mi.fallback = err.Error()
		return
	}
	for _, l := range table.Leaves {
		if l.Wildcard != nil {
			mi.dispatch = append(mi.dispatch, nil)
			v.needWild = true
			continue
		}
		decl := l.Data.(*xsd.ElementDecl)
		var targets []leafTarget
		for _, n := range l.Names {
			resolved, rerr := resolveStatic(v.schema, decl, xsd.QName{Space: n.Space, Local: n.Local})
			if rerr != nil {
				mi.fallback = rerr.Error()
				return
			}
			targets = append(targets, leafTarget{space: n.Space, local: n.Local, decl: resolved})
		}
		mi.dispatch = append(mi.dispatch, targets)
	}
	mi.table = table
}

// resolveStatic is Schema.ResolveChild evaluated at generation time: the
// name is either the declared element itself or a substitution-group
// member whose head chain reaches the declaration.
func resolveStatic(s *xsd.Schema, declared *xsd.ElementDecl, name xsd.QName) (*xsd.ElementDecl, error) {
	if declared.Name == name {
		if declared.Abstract {
			return nil, fmt.Errorf("element %s is abstract and cannot appear in instances", name)
		}
		return declared, nil
	}
	if g, ok := s.LookupElement(name); ok {
		for h := g.SubstitutionHead; h != nil; h = h.SubstitutionHead {
			if h == declared || h.Name == declared.Name {
				if g.Abstract {
					return nil, fmt.Errorf("element %s is abstract and cannot appear in instances", name)
				}
				return g, nil
			}
		}
	}
	return nil, fmt.Errorf("element %s cannot substitute for %s", name, declared.Name)
}

// typeLabel names a type for generated comments.
func typeLabel(t xsd.Type) string {
	if n := t.TypeName(); !n.IsZero() {
		return n.String()
	}
	switch tt := t.(type) {
	case *xsd.ComplexType:
		if tt.Context != "" {
			return "anonymous (" + tt.Context + ")"
		}
	case *xsd.SimpleType:
		if tt.Context != "" {
			return "anonymous (" + tt.Context + ")"
		}
	}
	return "anonymous"
}

// displayName mirrors SimpleType.displayName for gen-time error literals.
func displayName(s *xsd.SimpleType) string {
	if !s.Name.IsZero() {
		return s.Name.Local
	}
	if s.Context != "" {
		return "anonymous type (" + s.Context + ")"
	}
	return "anonymous simple type"
}

// effWS mirrors SimpleType.effectiveWhiteSpace at generation time.
func effWS(s *xsd.SimpleType) xsdtypes.WhiteSpace {
	for t := s; t != nil; t = t.Base {
		if t.Facets.WhiteSpace != nil {
			return *t.Facets.WhiteSpace
		}
		if t.Builtin != nil {
			return t.Builtin.WS
		}
	}
	return xsdtypes.WSCollapse
}

func wsConst(ws xsdtypes.WhiteSpace) string {
	switch ws {
	case xsdtypes.WSPreserve:
		return "WSPreserve"
	case xsdtypes.WSReplace:
		return "WSReplace"
	default:
		return "WSCollapse"
	}
}

// p emits one line of the function body buffer (gofmt re-indents).
func (v *valgen) p(format string, args ...any) {
	fmt.Fprintf(&v.body, format, args...)
	v.body.WriteByte('\n')
}

// run emits the whole file: the body (public API plus per-declaration and
// per-type functions) is generated first so it can demand parse functions,
// value vars and models; the header, handle block and demanded support
// code are assembled around it afterwards.
func (v *valgen) run() (string, error) {
	v.emitAPI()
	for _, d := range v.declList {
		v.emitElemValidate(d)
	}
	for _, t := range v.typeList {
		if ct, ok := t.(*xsd.ComplexType); ok {
			v.emitTypeValidate(ct)
		}
	}
	v.emitDecodeAPI()
	for _, d := range v.declList {
		v.emitElemDecode(d)
	}
	for _, t := range v.typeList {
		if ct, ok := t.(*xsd.ComplexType); ok {
			v.emitTypeDecode(ct)
		}
	}
	v.emitMarshal()
	if v.needWild {
		v.emitWildHelpers()
	}
	if v.err != nil {
		return "", v.err
	}
	return v.assemble(), nil
}

// assemble builds the final file around the emitted body.
func (v *valgen) assemble() string {
	body := v.body.String()

	var support strings.Builder
	sp := func(format string, args ...any) {
		fmt.Fprintf(&support, format, args...)
		support.WriteByte('\n')
	}
	v.emitHelpers(sp)
	v.emitHandles(sp)
	v.emitValueVars(sp)
	for _, f := range v.parseList {
		v.emitParseFn(sp, f)
	}
	for _, mi := range v.modelList {
		if mi.table == nil {
			sp("// %s (%s) stays on the interpreted matcher: %s", mi.name, typeLabel(mi.ct), mi.fallback)
			sp("")
			continue
		}
		emitModelTables(sp, mi.name, mi.table, "content model of "+typeLabel(mi.ct))
		emitModelStep(sp, mi.name, mi.table)
	}
	supportStr := support.String()

	all := supportStr + body
	var out strings.Builder
	op := func(format string, args ...any) {
		fmt.Fprintf(&out, format, args...)
		out.WriteByte('\n')
	}
	op("// Code generated by vdomgen from %s. DO NOT EDIT.", v.opts.SchemaComment)
	op("//")
	op("// Compiled validator (the codegen validator back end): every content")
	op("// model is unrolled into switch statements over its exported DFA,")
	op("// attribute sets and simple-type facet chains are straight-line checks,")
	op("// and Decode specializes the generic binder walk. Cold paths")
	op("// (xsi:type, identity constraints, pruned declarations, refused models)")
	op("// delegate to the interpreted walk through validator.Sink, so verdicts")
	op("// — including MatchError text — are byte-identical to")
	op("// validator.ValidateDocument over the RT schema.")
	if v.reached != nil {
		op("//")
		op("// Pruned build: declarations unreached by the instance corpus")
		op("// (%s) delegate to the interpreted walk.", v.corpusNames())
	}
	op("package %s", v.opts.Package)
	op("")
	op("import (")
	if strings.Contains(all, "fmt.") {
		op("\t\"fmt\"")
	}
	if strings.Contains(all, "strings.") {
		op("\t\"strings\"")
	}
	op("")
	op("\t\"repro/internal/bind\"")
	if strings.Contains(all, "contentmodel.") {
		op("\t\"repro/internal/contentmodel\"")
	}
	op("\t\"repro/internal/dom\"")
	op("\t\"repro/internal/validator\"")
	op("\t\"repro/internal/xsd\"")
	if strings.Contains(all, "xsdtypes.") {
		op("\t\"repro/internal/xsdtypes\"")
	}
	op(")")
	op("")
	out.WriteString(all)
	return out.String()
}

func (v *valgen) corpusNames() string {
	var names []string
	for _, cd := range v.opts.Corpus {
		names = append(names, cd.Name)
	}
	return strings.Join(names, ", ")
}

// emitHelpers prints the fixed lookup helpers the handle block uses.
func (v *valgen) emitHelpers(p func(string, ...any)) {
	p("// gvElemDecl resolves a global element declaration from the runtime")
	p("// schema; the schema is embedded (SchemaSource), so the lookup cannot")
	p("// fail on an unmodified generated package.")
	p("func gvElemDecl(space, local string) *xsd.ElementDecl {")
	p("d, ok := gvSchema.LookupElement(xsd.QName{Space: space, Local: local})")
	p("if !ok {")
	p("panic(\"codegen: schema drift: no global element \" + xsd.QName{Space: space, Local: local}.String())")
	p("}")
	p("return d")
	p("}")
	p("")
	if v.needParticleElem {
		p("// gvParticleElem walks group-particle indices to a local element")
		p("// declaration of a complex type's content model.")
		p("func gvParticleElem(p *xsd.Particle, path ...int) *xsd.ElementDecl {")
		p("for _, i := range path {")
		p("p = p.Group.Particles[i]")
		p("}")
		p("return p.Element")
		p("}")
		p("")
	}
	if len(v.valueList) > 0 {
		p("// gvVal parses one fixed/default lexical value at init; the ok flag")
		p("// mirrors the interpreted walk's silent skip of unparseable values.")
		p("func gvVal(parse func(string) (xsdtypes.Value, error), lexical string) (xsdtypes.Value, bool) {")
		p("val, err := parse(lexical)")
		p("return val, err == nil")
		p("}")
		p("")
	}
}

// emitHandles prints the component-handle var block.
func (v *valgen) emitHandles(p func(string, ...any)) {
	p("// Schema-component handles, resolved once at init from the binding")
	p("// file's RT runtime (the schema is parsed exactly once per package).")
	p("var (")
	p("gvSchema    = RT.Schema")
	p("gvValidator = validator.New(gvSchema, nil)")
	p("gvBinder    = bind.New(gvSchema, gvValidator)")
	p("")
	for _, h := range v.handles {
		p("%s = %s // %s", h.name, h.expr, h.comment)
	}
	p(")")
	p("")
}

// emitValueVars prints the precomputed fixed/default values.
func (v *valgen) emitValueVars(p func(string, ...any)) {
	if len(v.valueList) == 0 {
		return
	}
	p("// Precomputed fixed/default values (parsed once at init).")
	p("var (")
	for _, vv := range v.valueList {
		p("%s, %sOK = gvVal(%s, %q)", vv.name, vv.name, vv.parse, vv.lexical)
	}
	p(")")
	p("")
}
