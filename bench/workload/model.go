package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Order is the generator's model of one purchase order. Empty strings
// stand for absent optional elements; the generator never produces an
// empty comment or ship date.
type Order struct {
	OrderDate      string
	ShipTo, BillTo Address
	Comment        string
	Items          []Item
}

// Address is a USAddress; the country attribute is always written.
type Address struct {
	Name, Street, City, State string
	Zip                       int
}

// Item is one order line. Prices are kept in cents so the model never
// depends on how a decimal is rendered.
type Item struct {
	PartNum     string
	ProductName string
	Quantity    int
	PriceCents  int
	Comment     string
	ShipDate    string
}

// Tenant is the model of one tenant document.
type Tenant struct {
	Schema string // registry name, also the namespace suffix
	Lang   string // "" means absent
	ID     string
	Rev    int // 0 means absent
	Bodies []string
}

// mutation names one fixed way of breaking a valid document, applied to
// a chosen order line (or the root) when the document is rendered.
type mutation int

const (
	mutNone mutation = iota
	mutQuantityZero
	mutBadPartNum
	mutNoProductName
	mutUnknownChild
	mutBadOrderDate
	mutRevZero      // tenant: c:rev = 0
	mutTenantChild  // tenant: unknown child after the bodies
	mutNoID         // tenant: meta without c:id
	mutBadLang      // tenant: lang that is not a language tag
	numPOMutations  = 5
	numTenMutations = 4
)

var (
	names    = []string{"Alice Smith", "Robert Smith", "Chen Wei", "Zoë Müller", "Ana Lima", "Kofi Mensah", "Sara Ek", "Jürgen Roth"}
	streets  = []string{"123 Maple Street", "8 Oak Avenue", "17 Harbour Rd", "400 Elm St", "9 Rue de l'Église", "77 Sunset Blvd"}
	cities   = []string{"Mill Valley", "Old Town", "Springfield", "Lakeside", "Fairview", "Riverton"}
	states   = []string{"CA", "PA", "NY", "TX", "WA", "OR"}
	products = []string{"Lawnmower", "Baby Monitor", "Lapis Necklace", "Sturdy Shelves", "Garden Hose", "Desk Lamp", "Café Table", "Rope 10m"}
	words    = []string{"deliver", "before", "noon", "fragile", "keep", "dry", "gift", "wrap", "please", "call", "on", "arrival", "left", "side", "door", "R&D", "<urgent>", "naïve", "façade", "résumé", "€5", "extra", "padding", "invoice", "to", "HQ"}
)

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

func randDate(r *rand.Rand) string {
	return fmt.Sprintf("%04d-%02d-%02d", 1999+r.Intn(3), 1+r.Intn(12), 1+r.Intn(28))
}

// prose returns free text of n to m bytes: words, punctuation that XML
// must escape, and multi-byte UTF-8.
func prose(r *rand.Rand, n, m int) string {
	want := n + r.Intn(m-n+1)
	var b strings.Builder
	for b.Len() < want {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(pick(r, words))
	}
	return b.String()
}

func newAddress(r *rand.Rand) Address {
	return Address{
		Name: pick(r, names), Street: pick(r, streets), City: pick(r, cities),
		State: pick(r, states), Zip: 10000 + r.Intn(90000),
	}
}

// newOrder builds a valid order with n lines. A text-heavy order carries
// a 200–600-byte order comment and comments on about a third of its
// lines; a markup-heavy one carries none.
func newOrder(r *rand.Rand, n int, text bool) *Order {
	o := &Order{OrderDate: randDate(r), ShipTo: newAddress(r), BillTo: newAddress(r)}
	if text {
		o.Comment = prose(r, 200, 600)
	}
	o.Items = make([]Item, n)
	for i := range o.Items {
		it := Item{
			PartNum:     fmt.Sprintf("%03d-%c%c", r.Intn(1000), 'A'+r.Intn(26), 'A'+r.Intn(26)),
			ProductName: pick(r, products),
			Quantity:    1 + r.Intn(99),
			PriceCents:  1 + r.Intn(99999),
		}
		if text && r.Intn(3) == 0 {
			it.Comment = prose(r, 200, 600)
		}
		if r.Intn(2) == 0 {
			it.ShipDate = randDate(r)
		}
		o.Items[i] = it
	}
	return o
}

func newTenant(r *rand.Rand, schema string, text bool) *Tenant {
	t := &Tenant{Schema: schema, ID: fmt.Sprintf("%s-%06d", schema, r.Intn(1000000))}
	if r.Intn(2) == 0 {
		t.Lang = pick(r, []string{"en", "de", "pt-BR", "zh-Hans"})
	}
	if r.Intn(2) == 0 {
		t.Rev = 1 + r.Intn(500)
	}
	if text {
		t.Bodies = []string{prose(r, 200, 600)}
	} else {
		for i := r.Intn(4); i > 0; i-- {
			t.Bodies = append(t.Bodies, pick(r, words))
		}
	}
	return t
}

var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")
)

func price(cents int) string { return fmt.Sprintf("%d.%02d", cents/100, cents%100) }

func writeAddress(b *bytes.Buffer, tag string, a Address) {
	fmt.Fprintf(b, `<%s country="US"><name>%s</name><street>%s</street><city>%s</city><state>%s</state><zip>%d</zip></%s>`,
		tag, textEscaper.Replace(a.Name), textEscaper.Replace(a.Street), textEscaper.Replace(a.City),
		a.State, a.Zip, tag)
}

// XML renders the order. mut breaks line at (or, for the order date, the
// root); prolog is written between the XML declaration and the root.
func (o *Order) xml(mut mutation, at int, prolog string, rootAttrs string) []byte {
	var b bytes.Buffer
	b.Grow(200 + 160*len(o.Items))
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	b.WriteString(prolog)
	date := o.OrderDate
	if mut == mutBadOrderDate {
		date = "1999-13-40"
	}
	fmt.Fprintf(&b, `<purchaseOrder orderDate="%s"%s>`, date, rootAttrs)
	writeAddress(&b, "shipTo", o.ShipTo)
	writeAddress(&b, "billTo", o.BillTo)
	if o.Comment != "" {
		b.WriteString("<comment>" + textEscaper.Replace(o.Comment) + "</comment>")
	}
	b.WriteString("<items>")
	for i, it := range o.Items {
		m := mutNone
		if i == at {
			m = mut
		}
		partNum, qty := it.PartNum, strconv.Itoa(it.Quantity)
		switch m {
		case mutBadPartNum:
			partNum = "12-A"
		case mutQuantityZero:
			qty = "0"
		}
		b.WriteString(`<item partNum="` + attrEscaper.Replace(partNum) + `">`)
		if m != mutNoProductName {
			b.WriteString("<productName>" + textEscaper.Replace(it.ProductName) + "</productName>")
		}
		b.WriteString("<quantity>" + qty + "</quantity><USPrice>" + price(it.PriceCents) + "</USPrice>")
		if m == mutUnknownChild {
			b.WriteString("<bogus/>")
		}
		if it.Comment != "" {
			b.WriteString("<comment>" + textEscaper.Replace(it.Comment) + "</comment>")
		}
		if it.ShipDate != "" {
			b.WriteString("<shipDate>" + it.ShipDate + "</shipDate>")
		}
		b.WriteString("</item>")
	}
	b.WriteString("</items></purchaseOrder>")
	return b.Bytes()
}

// violationPath is where the validator must report the first violation
// of an order broken by mut at line at: the offending element, with the
// 1-based positional predicate written only for the second and later
// siblings of one name, and attribute faults reported on their element.
func violationPath(mut mutation, at int) string {
	item := "/purchaseOrder/items/item"
	if at > 0 {
		item += fmt.Sprintf("[%d]", at+1)
	}
	switch mut {
	case mutQuantityZero, mutNoProductName:
		return item + "/quantity"
	case mutBadPartNum:
		return item
	case mutUnknownChild:
		return item + "/bogus"
	case mutBadOrderDate:
		return "/purchaseOrder"
	case mutRevZero:
		return "/t:doc/t:meta/c:rev"
	case mutNoID:
		return "/t:doc/t:meta/c:rev"
	case mutTenantChild:
		return "/t:doc/t:zap"
	case mutBadLang:
		return "/t:doc"
	}
	return ""
}

func (t *Tenant) xml(mut mutation) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `<t:doc xmlns:t="urn:%s" xmlns:c="urn:common"`, t.Schema)
	switch {
	case mut == mutBadLang:
		b.WriteString(` lang="not a language"`)
	case t.Lang != "":
		b.WriteString(` lang="` + t.Lang + `"`)
	}
	b.WriteString("><t:meta>")
	if mut != mutNoID {
		b.WriteString("<c:id>" + textEscaper.Replace(t.ID) + "</c:id>")
	}
	switch {
	case mut == mutRevZero:
		b.WriteString("<c:rev>0</c:rev>")
	case mut == mutNoID:
		fmt.Fprintf(&b, "<c:rev>%d</c:rev>", t.Rev+1)
	case t.Rev > 0:
		fmt.Fprintf(&b, "<c:rev>%d</c:rev>", t.Rev)
	}
	b.WriteString("</t:meta>")
	for _, body := range t.Bodies {
		b.WriteString("<t:body>" + textEscaper.Replace(body) + "</t:body>")
	}
	if mut == mutTenantChild {
		b.WriteString("<t:zap/>")
	}
	b.WriteString("</t:doc>")
	return b.Bytes()
}

// The canonical-JSON shapes of an order (DESIGN.md §12: attributes as
// "@name", plural fields always arrays, decimals as JSON numbers). They
// serve both directions: the generator writes /v1/encode bodies with
// them and the oracle reads /v1/decode answers into them.
type orderJSON struct {
	Element   string      `json:"$element"`
	OrderDate string      `json:"@orderDate"`
	ShipTo    addressJSON `json:"shipTo"`
	BillTo    addressJSON `json:"billTo"`
	Comment   string      `json:"comment,omitempty"`
	Items     struct {
		Item []itemJSON `json:"item"`
	} `json:"items"`
}

type addressJSON struct {
	Country string      `json:"@country"`
	Name    string      `json:"name"`
	Street  string      `json:"street"`
	City    string      `json:"city"`
	State   string      `json:"state"`
	Zip     json.Number `json:"zip"`
}

type itemJSON struct {
	PartNum     string      `json:"@partNum"`
	ProductName string      `json:"productName"`
	Quantity    json.Number `json:"quantity"`
	USPrice     json.Number `json:"USPrice"`
	Comment     string      `json:"comment,omitempty"`
	ShipDate    string      `json:"shipDate,omitempty"`
}

func addrJSON(a Address) addressJSON {
	return addressJSON{Country: "US", Name: a.Name, Street: a.Street, City: a.City, State: a.State,
		Zip: json.Number(strconv.Itoa(a.Zip))}
}

// JSON renders the order in canonical JSON, the body /v1/encode takes.
func (o *Order) JSON() []byte {
	j := orderJSON{Element: "purchaseOrder", OrderDate: o.OrderDate, ShipTo: addrJSON(o.ShipTo),
		BillTo: addrJSON(o.BillTo), Comment: o.Comment}
	j.Items.Item = make([]itemJSON, len(o.Items))
	for i, it := range o.Items {
		j.Items.Item[i] = itemJSON{PartNum: it.PartNum, ProductName: it.ProductName,
			Quantity: json.Number(strconv.Itoa(it.Quantity)), USPrice: json.Number(price(it.PriceCents)),
			Comment: it.Comment, ShipDate: it.ShipDate}
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(j); err != nil {
		panic(err) // strings and json.Numbers built above always encode
	}
	return bytes.TrimSpace(b.Bytes())
}
