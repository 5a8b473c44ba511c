package repro

// Pinned verdicts. testdata/validator_verdicts.txt holds the violations
// (paths and messages) of every input of the E8 differential corpora —
// TestStreamMatchesDOM's groups, the E1 mutation corpus and the generated
// Fig. 1 mutants — as the recursive DOM walk reported them before the
// validator was reduced to one walk. The differential suites compare entry
// points with each other; this test compares each of them with that fixed
// reference, so a change that moves every entry point at once still fails.
// The file has no update flag: an entry changes only by hand, with a reason.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/schemas"
	"repro/internal/validator"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
	"repro/internal/xsdtypes"
)

const pinnedVerdictsFile = "testdata/validator_verdicts.txt"

// pinnedInput is one document of the pinned corpora under its schema.
type pinnedInput struct {
	key, xsdSrc, src string
}

// pinnedInputs lists the inputs of TestStreamMatchesDOM,
// TestStreamMatchesDOMOnMutationCorpus and
// TestStreamMatchesDOMOnGeneratedMutants, keyed as in the pinned file.
func pinnedInputs(t *testing.T) []pinnedInput {
	var in []pinnedInput
	for _, tc := range diffCases {
		for label, src := range tc.instances {
			in = append(in, pinnedInput{"corpus/" + tc.name + "/" + label, tc.xsdSrc, src})
		}
	}
	for _, m := range poMutations {
		in = append(in, pinnedInput{"mutation/" + m.name, schemas.PurchaseOrderXSD, m.xmlOutput})
	}
	for _, op := range []string{"remove", "duplicate", "rename", "bogus-attr", "inject-text"} {
		for idx := 0; ; idx++ {
			src, ok := mutateDoc(t, schemas.PurchaseOrderDoc, idx, op)
			if !ok {
				if idx == 0 {
					continue
				}
				break
			}
			in = append(in, pinnedInput{fmt.Sprintf("mutant/%s[%d]", op, idx), schemas.PurchaseOrderXSD, src})
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].key < in[j].key })
	return in
}

// formatVerdict renders a result as the pinned file's body lines.
func formatVerdict(res *validator.Result) string {
	if res.OK() {
		return "\tvalid\n"
	}
	var b strings.Builder
	for _, v := range res.Violations {
		b.WriteString("\t" + v.Error() + "\n")
	}
	return b.String()
}

// readPinnedVerdicts parses the pinned file: a "== key" line, then the
// verdict's body lines.
func readPinnedVerdicts(t *testing.T) map[string]string {
	raw, err := os.ReadFile(pinnedVerdictsFile)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	var key string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			key = strings.TrimSuffix(line[3:], "\n")
		case strings.HasPrefix(line, "\t"):
			out[key] += line
		}
	}
	return out
}

// nopEvents is an observer that ignores every callback, so the *Events
// entry points run with an observer attached.
type nopEvents struct{}

func (nopEvents) OpenElement(validator.ElementStart) {}
func (nopEvents) CloseElement(*xsdtypes.Value)       {}
func (nopEvents) MixedText(string)                   {}
func (nopEvents) RawElement(xsd.QName, string)       {}

// byteEntries are the production entry points that take a serialized
// document, each reduced to its verdict.
var byteEntries = []struct {
	name string
	run  func(b *bind.Binder, src []byte) *validator.Result
}{
	{"ValidateBytes", func(b *bind.Binder, src []byte) *validator.Result {
		_, res := validator.ValidateBytes(b.Schema(), src)
		return res
	}},
	{"Stream.ValidateBytes", func(b *bind.Binder, src []byte) *validator.Result {
		return b.Validator().Stream().ValidateBytes(src)
	}},
	{"Stream.ValidateReader", func(b *bind.Binder, src []byte) *validator.Result {
		return b.Validator().Stream().ValidateReader(bytes.NewReader(src))
	}},
	{"Stream.ValidateBatch", func(b *bind.Binder, src []byte) *validator.Result {
		return b.Validator().Stream().ValidateBatch([][]byte{src, src})[1]
	}},
	{"Stream.ValidateTokens", func(b *bind.Binder, src []byte) *validator.Result {
		return b.Validator().Stream().ValidateTokens(xmlparser.NewDecoder(src, nil))
	}},
	{"Stream.ValidateBytesEvents", func(b *bind.Binder, src []byte) *validator.Result {
		return b.Validator().Stream().ValidateBytesEvents(src, nopEvents{})
	}},
	{"Stream.ValidateReaderEvents", func(b *bind.Binder, src []byte) *validator.Result {
		res, err := b.Validator().Stream().ValidateReaderEvents(context.Background(), bytes.NewReader(src), nopEvents{})
		if err != nil {
			return &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: err.Error()}}}
		}
		return res
	}},
	{"bind.DecodeBytes", func(b *bind.Binder, src []byte) *validator.Result {
		_, res := b.DecodeBytes(src)
		return res
	}},
	{"bind.DecodeStreamBytes", func(b *bind.Binder, src []byte) *validator.Result {
		_, res, err := b.DecodeStreamBytes(src)
		if err != nil {
			return &validator.Result{Violations: []validator.Violation{{Path: "/", Msg: err.Error()}}}
		}
		return res
	}},
}

// docEntries are the production entry points that take a parsed document.
var docEntries = []struct {
	name string
	run  func(b *bind.Binder, doc *dom.Document) *validator.Result
}{
	{"ValidateDocument", func(b *bind.Binder, doc *dom.Document) *validator.Result {
		return b.Validator().ValidateDocument(doc)
	}},
	{"ValidateDocumentEvents", func(b *bind.Binder, doc *dom.Document) *validator.Result {
		return b.Validator().ValidateDocumentEvents(doc, nopEvents{})
	}},
	{"bind.DecodeDocument", func(b *bind.Binder, doc *dom.Document) *validator.Result {
		_, res := b.DecodeDocument(doc)
		return res
	}},
}

// TestVerdictsMatchPinnedReference checks every production entry point
// against the pinned verdicts: the parsed-document ones on every input
// that parses, and the subtree ones (which are given the declaration) on
// every input whose root has a global declaration.
func TestVerdictsMatchPinnedReference(t *testing.T) {
	pinned := readPinnedVerdicts(t)
	inputs := pinnedInputs(t)
	if len(pinned) != len(inputs) {
		t.Errorf("pinned file has %d entries, the corpora %d inputs", len(pinned), len(inputs))
	}
	binders := map[string]*bind.Binder{}
	for _, in := range inputs {
		want, ok := pinned[in.key]
		if !ok {
			t.Errorf("%s: no pinned verdict", in.key)
			continue
		}
		b := binders[in.xsdSrc]
		if b == nil {
			s, err := xsd.ParseString(in.xsdSrc, nil)
			if err != nil {
				t.Fatalf("%s: schema: %v", in.key, err)
			}
			b = bind.New(s, nil)
			binders[in.xsdSrc] = b
		}
		check := func(entry string, res *validator.Result) {
			if got := formatVerdict(res); got != want {
				t.Errorf("%s via %s:\n got:\n%s want:\n%s", in.key, entry, got, want)
			}
		}
		src := []byte(in.src)
		for _, e := range byteEntries {
			check(e.name, e.run(b, src))
		}
		doc, err := dom.Parse(src)
		if err != nil {
			continue
		}
		for _, e := range docEntries {
			check(e.name, e.run(b, doc))
		}
		root := doc.DocumentElement()
		decl, ok := b.Schema().LookupElement(xsd.QName{Space: root.NamespaceURI(), Local: root.LocalName()})
		if !ok {
			continue
		}
		v := b.Validator()
		check("ValidateElement", v.ValidateElement(root, decl))
		check("ValidateElementEvents", v.ValidateElementEvents(root, decl, nopEvents{}))
		_, res, err := b.DecodeSubtree(root, decl)
		if err != nil {
			t.Errorf("%s: DecodeSubtree: %v", in.key, err)
			continue
		}
		check("bind.DecodeSubtree", res)
	}
}
