package workload

import (
	"encoding/json"
	"encoding/xml"
	"fmt"
	"math/big"
	"net/http"
	"strconv"
)

// Outcome is what a checked response means for the server's /metrics
// counters: a 200 moves a series' requests by one and its invalid count
// by the invalid documents it judged; a typed refusal (413/422) moves
// its errors count instead.
type Outcome struct {
	Docs    int // documents answered correctly
	Invalid int
	Refused bool
	// ElapsedNs is the server's own time for the request, from its JSON
	// answer (0 when the answer carries none).
	ElapsedNs int64
}

type violation struct {
	Path string `json:"path"`
	Msg  string `json:"msg"`
}

type verdict struct {
	Mode       string          `json:"mode"`
	Valid      *bool           `json:"valid"`
	Violations []violation     `json:"violations"`
	Data       json.RawMessage `json:"data"`
	ElapsedNs  int64           `json:"elapsed_ns"`
}

type batchVerdict struct {
	Count     int   `json:"count"`
	Invalid   int   `json:"invalid"`
	ElapsedNs int64 `json:"elapsed_ns"`
	Results   []struct {
		Valid      bool        `json:"valid"`
		Violations []violation `json:"violations"`
	} `json:"results"`
}

// Check judges one response against the request's expected outcome.
// Anything but the expected verdict fails, except that a hostile document
// may instead be refused with a typed 413 or 422.
func Check(q *Request, status int, body []byte) (Outcome, error) {
	if status == http.StatusRequestEntityTooLarge || status == http.StatusUnprocessableEntity {
		if q.Docs[0].Hostile == "" {
			return Outcome{}, fmt.Errorf("status %d for an ordinary document: %.200s", status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			return Outcome{}, fmt.Errorf("status %d without a typed JSON error: %.200s", status, body)
		}
		return Outcome{Docs: 1, Refused: true}, nil
	}
	if status != http.StatusOK {
		return Outcome{}, fmt.Errorf("status %d: %.200s", status, body)
	}
	switch q.Op {
	case OpBatch:
		return checkBatch(q, body)
	case OpEncode:
		if err := checkEncoded(q.Docs[0].Order, body); err != nil {
			return Outcome{}, err
		}
		return Outcome{Docs: 1}, nil
	}
	var v verdict
	if err := json.Unmarshal(body, &v); err != nil {
		return Outcome{}, fmt.Errorf("verdict is not JSON: %v: %.200s", err, body)
	}
	if v.Mode != q.Op.Mode() {
		return Outcome{}, fmt.Errorf("mode %q, want %q", v.Mode, q.Op.Mode())
	}
	if v.Valid == nil {
		return Outcome{}, fmt.Errorf("verdict carries no valid field: %.200s", body)
	}
	d := q.Docs[0]
	if err := checkVerdict(d, *v.Valid, v.Violations); err != nil {
		return Outcome{}, err
	}
	if q.Op == OpDecode || q.Op == OpDecodeStream {
		if err := checkDecoded(d.Order, v.Data); err != nil {
			return Outcome{}, err
		}
	}
	out := Outcome{Docs: 1, ElapsedNs: v.ElapsedNs}
	if !d.Valid {
		out.Invalid = 1
	}
	return out, nil
}

func checkVerdict(d *Doc, valid bool, vs []violation) error {
	if valid != d.Valid {
		first := ""
		if len(vs) > 0 {
			first = vs[0].Path + ": " + vs[0].Msg
		}
		return fmt.Errorf("valid=%v, want %v (first violation %.200q)", valid, d.Valid, first)
	}
	if d.Valid {
		return nil
	}
	if len(vs) == 0 {
		return fmt.Errorf("invalid verdict without violations")
	}
	if vs[0].Path != d.Path {
		return fmt.Errorf("first violation at %.200q, want %.200q (%s)", vs[0].Path, d.Path, vs[0].Msg)
	}
	return nil
}

func checkBatch(q *Request, body []byte) (Outcome, error) {
	var b batchVerdict
	if err := json.Unmarshal(body, &b); err != nil {
		return Outcome{}, fmt.Errorf("batch verdict is not JSON: %v: %.200s", err, body)
	}
	if b.Count != len(q.Docs) || len(b.Results) != len(q.Docs) {
		return Outcome{}, fmt.Errorf("batch answered %d/%d results for %d documents", b.Count, len(b.Results), len(q.Docs))
	}
	out := Outcome{Docs: len(q.Docs), ElapsedNs: b.ElapsedNs}
	for i, d := range q.Docs {
		if err := checkVerdict(d, b.Results[i].Valid, b.Results[i].Violations); err != nil {
			return Outcome{}, fmt.Errorf("batch document %d: %w", i, err)
		}
		if !d.Valid {
			out.Invalid++
		}
	}
	if b.Invalid != out.Invalid {
		return Outcome{}, fmt.Errorf("batch counts %d invalid, want %d", b.Invalid, out.Invalid)
	}
	return out, nil
}

// checkDecoded compares a /v1/decode answer, read with encoding/json,
// with the model the document was rendered from.
func checkDecoded(o *Order, data json.RawMessage) error {
	var j orderJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return fmt.Errorf("decoded data is not the order shape: %v: %.200s", err, data)
	}
	if j.Element != "purchaseOrder" {
		return fmt.Errorf("decoded $element %q", j.Element)
	}
	got := &Order{OrderDate: j.OrderDate, Comment: j.Comment}
	var err error
	if got.ShipTo, err = addressFrom(j.ShipTo); err != nil {
		return err
	}
	if got.BillTo, err = addressFrom(j.BillTo); err != nil {
		return err
	}
	for _, it := range j.Items.Item {
		item := Item{PartNum: it.PartNum, ProductName: it.ProductName, Comment: it.Comment, ShipDate: it.ShipDate}
		if item.Quantity, err = strconv.Atoi(string(it.Quantity)); err != nil {
			return fmt.Errorf("decoded quantity %q", it.Quantity)
		}
		if item.PriceCents, err = cents(string(it.USPrice)); err != nil {
			return err
		}
		got.Items = append(got.Items, item)
	}
	return sameOrder(o, got, "decoded")
}

func addressFrom(a addressJSON) (Address, error) {
	if a.Country != "US" {
		return Address{}, fmt.Errorf("country %q", a.Country)
	}
	zip, err := cents(string(a.Zip))
	if err != nil || zip%100 != 0 {
		return Address{}, fmt.Errorf("zip %q is not a whole number", a.Zip)
	}
	return Address{Name: a.Name, Street: a.Street, City: a.City, State: a.State, Zip: zip / 100}, nil
}

// cents reads a decimal with at most two fraction digits as cents.
func cents(s string) (int, error) {
	x, ok := new(big.Rat).SetString(s)
	if !ok {
		return 0, fmt.Errorf("%q is not a decimal", s)
	}
	x.Mul(x, big.NewRat(100, 1))
	if !x.IsInt() || !x.Num().IsInt64() {
		return 0, fmt.Errorf("%q has more than two fraction digits", s)
	}
	return int(x.Num().Int64()), nil
}

type addressXML struct {
	Country string `xml:"country,attr"`
	Name    string `xml:"name"`
	Street  string `xml:"street"`
	City    string `xml:"city"`
	State   string `xml:"state"`
	Zip     string `xml:"zip"`
}

type orderXML struct {
	XMLName   xml.Name   `xml:"purchaseOrder"`
	OrderDate string     `xml:"orderDate,attr"`
	ShipTo    addressXML `xml:"shipTo"`
	BillTo    addressXML `xml:"billTo"`
	Comment   string     `xml:"comment"`
	Items     []struct {
		PartNum     string `xml:"partNum,attr"`
		ProductName string `xml:"productName"`
		Quantity    string `xml:"quantity"`
		USPrice     string `xml:"USPrice"`
		Comment     string `xml:"comment"`
		ShipDate    string `xml:"shipDate"`
	} `xml:"items>item"`
}

// checkEncoded compares a /v1/encode answer, read with encoding/xml,
// with the model its JSON body was written from.
func checkEncoded(o *Order, body []byte) error {
	var x orderXML
	if err := xml.Unmarshal(body, &x); err != nil {
		return fmt.Errorf("encoded document is not the order shape: %v: %.200s", err, body)
	}
	got := &Order{OrderDate: x.OrderDate, Comment: x.Comment}
	for _, a := range []struct {
		src addressXML
		dst *Address
	}{{x.ShipTo, &got.ShipTo}, {x.BillTo, &got.BillTo}} {
		addr, err := addressFrom(addressJSON{Country: a.src.Country, Name: a.src.Name, Street: a.src.Street,
			City: a.src.City, State: a.src.State, Zip: json.Number(a.src.Zip)})
		if err != nil {
			return err
		}
		*a.dst = addr
	}
	for _, it := range x.Items {
		item := Item{PartNum: it.PartNum, ProductName: it.ProductName, Comment: it.Comment, ShipDate: it.ShipDate}
		var err error
		if item.Quantity, err = strconv.Atoi(it.Quantity); err != nil {
			return fmt.Errorf("encoded quantity %q", it.Quantity)
		}
		if item.PriceCents, err = cents(it.USPrice); err != nil {
			return err
		}
		got.Items = append(got.Items, item)
	}
	return sameOrder(o, got, "encoded")
}

func sameOrder(want, got *Order, what string) error {
	if want.OrderDate != got.OrderDate || want.Comment != got.Comment ||
		want.ShipTo != got.ShipTo || want.BillTo != got.BillTo {
		return fmt.Errorf("%s order header differs from the model", what)
	}
	if len(want.Items) != len(got.Items) {
		return fmt.Errorf("%s order has %d lines, model has %d", what, len(got.Items), len(want.Items))
	}
	for i := range want.Items {
		if want.Items[i] != got.Items[i] {
			return fmt.Errorf("%s order line %d is %+v, model has %+v", what, i+1, got.Items[i], want.Items[i])
		}
	}
	return nil
}
