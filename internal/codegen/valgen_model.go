package codegen

// Model and simple-type emission for the validator back end: exported-DFA
// transition tables and step functions, and straight-line simple-type
// parsers.

import (
	"fmt"
	"strings"

	"repro/internal/contentmodel"
	"repro/internal/xsd"
)

// parseFnFor returns (registering on first use) the generated parser of a
// simple type. The type must have been visited during discovery.
func (v *valgen) parseFnFor(st *xsd.SimpleType) string {
	if f, ok := v.parseFns[st]; ok {
		return f.name
	}
	if _, ok := v.typeVar[st]; !ok {
		v.fail("simple type %s demanded before discovery", typeLabel(st))
		return "gvParseMissing"
	}
	f := &parseFn{name: fmt.Sprintf("gvParse%d", len(v.parseList)), st: st}
	// The straight-line emitter unrolls atomic restriction chains; list and
	// union varieties (anywhere in the chain) delegate to SimpleType.Parse
	// on the handle, which is behaviorally identical.
	for t := st; t != nil; t = t.Base {
		if t.Variety != xsd.VarietyAtomic {
			f.delegate = true
			break
		}
		if t.Builtin != nil {
			break
		}
	}
	v.parseFns[st] = f
	v.parseList = append(v.parseList, f)
	return f.name
}

// valueVarFor returns (registering on first use) the init-parsed value var
// for one fixed/default lexical of a simple type.
func (v *valgen) valueVarFor(st *xsd.SimpleType, lexical string) string {
	parse := v.parseFnFor(st)
	key := valueKey{parse: parse, lexical: lexical}
	if vv, ok := v.valueVars[key]; ok {
		return vv.name
	}
	vv := &valueVar{name: fmt.Sprintf("gvVal%d", len(v.valueList)), parse: parse, lexical: lexical}
	v.valueVars[key] = vv
	v.valueList = append(v.valueList, vv)
	return vv.name
}

// emitParseFn prints one generated simple-type parser. The unrolled form
// replays SimpleType.Parse exactly: per chain level, whitespace
// normalization against that level's effective mode, the built-in parse at
// the bottom, then each level's user facet steps base-outward — inner
// levels' own steps run first (inside their recursion), and every level
// re-checks its whole non-builtin chain against its own normalized lexical
// with its own display name, as the interpreter does.
func (v *valgen) emitParseFn(p func(string, ...any), f *parseFn) {
	if f.delegate {
		p("// %s parses values of %s (non-atomic variety: delegates to the", f.name, typeLabel(f.st))
		p("// component's Parse, which is the same code path either way).")
		p("func %s(lexical string) (xsdtypes.Value, error) {", f.name)
		p("return %s.Parse(lexical)", v.typeVar[f.st])
		p("}")
		p("")
		return
	}
	p("// %s is the straight-line parser of %s (whitespace, built-in", f.name, typeLabel(f.st))
	p("// parse, then user facet steps base-outward, as SimpleType.Parse).")
	p("func %s(lexical string) (xsdtypes.Value, error) {", f.name)
	v.emitParseLevel(p, f.st, "lexical", 0)
	p("return val, nil")
	p("}")
	p("")
}

// emitParseLevel prints one recursion level of SimpleType.Parse.
func (v *valgen) emitParseLevel(p func(string, ...any), t *xsd.SimpleType, in string, depth int) {
	norm := fmt.Sprintf("norm%d", depth)
	p("%s := xsdtypes.ApplyWhiteSpace(xsdtypes.%s, %s)", norm, wsConst(effWS(t)), in)
	switch {
	case t.Builtin != nil:
		p("val, err := %s.Builtin.Parse(%s)", v.typeVar[t], norm)
		p("if err != nil {")
		p("return xsdtypes.Value{}, err")
		p("}")
	case t.Base != nil:
		v.emitParseLevel(p, t.Base, norm, depth+1)
	default:
		p("val := xsdtypes.Value{Kind: xsdtypes.VString, Str: %s}", norm)
	}
	var steps []*xsd.SimpleType
	for s := t; s != nil && s.Builtin == nil; s = s.Base {
		steps = append(steps, s)
	}
	for i := len(steps) - 1; i >= 0; i-- {
		if steps[i].Facets.IsEmpty() {
			continue
		}
		p("if err := %s.Facets.Check(val, %s); err != nil {", v.typeVar[steps[i]], norm)
		p("return xsdtypes.Value{}, fmt.Errorf(\"%%s: %%w\", %q, err)", displayName(t))
		p("}")
	}
}

// emitModelTables prints the expected-label and acceptance tables of one
// exported DFA.
func emitModelTables(p func(string, ...any), prefix string, t *contentmodel.DFATable, what string) {
	p("// DFA tables for the %s: per-state expected-label", what)
	p("// lists (exactly the lazy path's MatchError.Expected) and acceptance.")
	p("var (")
	p("%sStepExp = [][]string{", prefix)
	for _, st := range t.States {
		p("%s,", stringSliceLit(st.StepExpected))
	}
	p("}")
	p("%sEndExp = [][]string{", prefix)
	for _, st := range t.States {
		p("%s,", stringSliceLit(st.EndExpected))
	}
	p("}")
	p("%sAccept = []bool{", prefix)
	for _, st := range t.States {
		p("%v,", st.Accept)
	}
	p("}")
	p(")")
	p("")
}

func stringSliceLit(ss []string) string {
	var b strings.Builder
	b.WriteString("{")
	for i, s := range ss {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q", s)
	}
	b.WriteString("}")
	return b.String()
}

// emitModelStep prints the unrolled transition function of one exported
// DFA: the symbol resolves to an alphabet class (named switch, then the
// wildcard-admission bucket), and a (state, class) switch takes the arc.
// It returns the successor state and the index of the leaf particle the
// symbol is attributed to, or (-1, -1) on reject.
func emitModelStep(p func(string, ...any), prefix string, t *contentmodel.DFATable) {
	p("// %sStep takes one DFA transition (successor state, attributed leaf;", prefix)
	p("// -1, -1 on reject).")
	p("func %sStep(st int, space, local string) (int, int) {", prefix)
	p("cls := -1")
	if len(t.Syms) > 0 {
		emitSymClassSwitch(p, t.Syms)
	}
	if len(t.Wilds) == 0 {
		p("if cls < 0 {")
		p("return -1, -1")
		p("}")
	} else {
		p("if cls < 0 {")
		p("// Undeclared name: route through the wildcard-admission bucket.")
		p("mask := 0")
		for i, w := range t.Wilds {
			emitAdmitsMask(p, w.Wildcard, 1<<i)
		}
		p("cls = %d + mask", len(t.Syms))
		p("}")
	}
	p("switch st {")
	for si, st := range t.States {
		var arcs []struct {
			cls int
			arc contentmodel.DFAArc
		}
		for c, a := range st.Named {
			if a.Next >= 0 {
				arcs = append(arcs, struct {
					cls int
					arc contentmodel.DFAArc
				}{c, a})
			}
		}
		for m, a := range st.Buckets {
			if a.Next >= 0 {
				arcs = append(arcs, struct {
					cls int
					arc contentmodel.DFAArc
				}{len(t.Syms) + m, a})
			}
		}
		if len(arcs) == 0 {
			continue
		}
		p("case %d:", si)
		p("switch cls {")
		for _, a := range arcs {
			p("case %d:", a.cls)
			p("return %d, %d", a.arc.Next, a.arc.Leaf)
		}
		p("}")
	}
	p("}")
	p("return -1, -1")
	p("}")
	p("")
}

// emitSymClassSwitch prints the named-symbol class resolution, grouped by
// namespace in first-seen order.
func emitSymClassSwitch(p func(string, ...any), syms []contentmodel.Symbol) {
	var spaces []string
	bySpace := map[string][]int{}
	for i, s := range syms {
		if _, ok := bySpace[s.Space]; !ok {
			spaces = append(spaces, s.Space)
		}
		bySpace[s.Space] = append(bySpace[s.Space], i)
	}
	p("switch space {")
	for _, sp := range spaces {
		p("case %q:", sp)
		p("switch local {")
		for _, i := range bySpace[sp] {
			p("case %q:", syms[i].Local)
			p("cls = %d", i)
		}
		p("}")
	}
	p("}")
}

// emitAdmitsMask prints one wildcard's namespace-admission test over the
// `space` variable, OR-ing bit into `mask` (inlining Wildcard.Admits).
func emitAdmitsMask(p func(string, ...any), w *contentmodel.Wildcard, bit int) {
	switch w.Kind {
	case contentmodel.WildAny:
		p("mask |= %d // ##any", bit)
	case contentmodel.WildOther:
		p("if space != %q && space != \"\" { // ##other", w.TargetNS)
		p("mask |= %d", bit)
		p("}")
	default:
		seen := map[string]bool{}
		var conds []string
		for _, ns := range w.Namespaces {
			if seen[ns] {
				continue
			}
			seen[ns] = true
			conds = append(conds, fmt.Sprintf("space == %q", ns))
		}
		if len(conds) == 0 {
			return // admits nothing: bit never set
		}
		p("if %s { // namespace list", strings.Join(conds, " || "))
		p("mask |= %d", bit)
		p("}")
	}
}
