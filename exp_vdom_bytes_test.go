package repro

// V-DOM writes bytes: the generated code has one emission path, and the
// DOM view is parsed from its output. These tests hold the bytes to what
// a reader of them sees: the DOM serializer writes them back unchanged,
// and the stream machine accepts them.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dom"
	"repro/internal/gen/pogen"
	"repro/internal/gen/wmlgen"
	"repro/internal/validator"
	"repro/internal/vdom"
)

// randDeck builds a random WML deck through the typed API: every element
// and attribute of the schema, mixed text with characters that need
// escaping, and repeated members.
func randDeck(r *rand.Rand, d *wmlgen.Document) (*wmlgen.WmlElement, error) {
	text := func() string {
		return randWord(r) + []string{"", " & ", " <tag> ", ` "q" `, "\r\n"}[r.Intn(5)] + randWord(r)
	}
	set := func(setters ...func(string) error) error {
		for _, s := range setters {
			if r.Intn(2) == 0 {
				if err := s(randWord(r)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	deck := d.CreateWmlType()
	for c := 0; c < 1+r.Intn(3); c++ {
		card := d.CreateCardType()
		if err := set(card.SetId, card.SetTitle); err != nil {
			return nil, err
		}
		for pi := 0; pi < r.Intn(4); pi++ {
			p := d.CreatePType()
			if r.Intn(3) == 0 {
				if err := p.SetAlign([]string{"left", "center", "right"}[r.Intn(3)]); err != nil {
					return nil, err
				}
			}
			for k := 0; k < r.Intn(6); k++ {
				switch r.Intn(5) {
				case 0:
					p.Text(text())
				case 1:
					p.Add(d.CreateB(text()))
				case 2:
					p.Add(d.CreateBr(d.CreateBrType()))
				case 3:
					sel := d.CreateSelectType()
					if err := set(sel.SetName, sel.SetTitle); err != nil {
						return nil, err
					}
					if r.Intn(2) == 0 {
						if err := sel.SetMultiple("true"); err != nil {
							return nil, err
						}
					}
					for o := 0; o < 1+r.Intn(3); o++ {
						opt, err := d.CreateOptionType(text())
						if err != nil {
							return nil, err
						}
						if err := set(opt.SetValue2, opt.SetTitle, opt.SetOnpick); err != nil {
							return nil, err
						}
						sel.AddOption(d.CreateOption(opt))
					}
					p.Add(d.CreateSelect(sel))
				case 4:
					a, err := d.CreateAType(text())
					if err != nil {
						return nil, err
					}
					if err := a.SetHref("http://example.com/" + randWord(r)); err != nil {
						return nil, err
					}
					if err := set(a.SetTitle); err != nil {
						return nil, err
					}
					p.Add(d.CreateA(a))
				}
			}
			card.AddP(d.CreateP(p))
		}
		deck.AddCard(d.CreateCard(card))
	}
	return d.CreateWml(deck), nil
}

// TestVDOMBytesFixpointAndValid: over random purchase orders and WML
// decks, the written bytes are a fixpoint of parse-then-serialize, and
// the stream machine accepts them.
func TestVDOMBytesFixpointAndValid(t *testing.T) {
	check := func(name string, sv *validator.StreamValidator, root vdom.ElementNode) {
		t.Helper()
		b, err := vdom.AppendXML(nil, root)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		doc, err := dom.Parse(b)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", name, err, b)
		}
		var again bytes.Buffer
		if err := dom.Serialize(&again, doc, &dom.SerializeOptions{OmitXMLDecl: true}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), b) {
			t.Fatalf("%s: not a serializer fixpoint:\nwrote      %s\nreserialized %s", name, b, again.Bytes())
		}
		if res := sv.ValidateBytes(b); !res.OK() {
			t.Fatalf("%s: written bytes invalid:\n%v\n%s", name, res.Err(), b)
		}
	}
	r := rand.New(rand.NewSource(48))
	po := validator.New(pogen.RT.Schema, nil).Stream()
	pd := pogen.NewDocument()
	for i := 0; i < 300; i++ {
		root, err := randOrder(r, pd)
		if err != nil {
			t.Fatalf("order %d: %v", i, err)
		}
		check(fmt.Sprintf("order %d", i), po, root)
	}
	wml := validator.New(wmlgen.RT.Schema, nil).Stream()
	wd := wmlgen.NewDocument()
	for i := 0; i < 300; i++ {
		root, err := randDeck(r, wd)
		if err != nil {
			t.Fatalf("deck %d: %v", i, err)
		}
		check(fmt.Sprintf("deck %d", i), wml, root)
	}
}

// TestVDOMAppendXMLAllocs: writing the 1,000-item order into a buffer
// with room for it allocates nothing.
func TestVDOMAppendXMLAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop recycled values at random")
	}
	root := buildVDOMOrder(pogen.NewDocument(), 1000)
	b, err := vdom.AppendXML(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(b))
	if allocs := testing.AllocsPerRun(20, func() { _, _ = vdom.AppendXML(buf, root) }); allocs != 0 {
		t.Errorf("%.1f allocations per AppendXML of the 1,000-item order, want 0", allocs)
	}
}
