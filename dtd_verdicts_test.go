package repro

// Pinned DTD verdicts. testdata/dtd_verdicts.txt holds (DTD, document)
// pairs with the OK/not-OK verdict dtd.Validate gave each while the DTD
// package had its own validation walk. The file has no update flag: a
// verdict changes only by hand, with a reason.

import (
	"os"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/dtd"
)

const dtdVerdictsFile = "testdata/dtd_verdicts.txt"

// dtdVerdict is one document row of the pinned file.
type dtdVerdict struct {
	label, dtd, src string
	ok              bool
}

// readDTDVerdicts parses the pinned file into its subsets (name → root
// and subset text) and its document rows.
func readDTDVerdicts(t *testing.T) (map[string][2]string, []dtdVerdict) {
	raw, err := os.ReadFile(dtdVerdictsFile)
	if err != nil {
		t.Fatal(err)
	}
	subsets := map[string][2]string{}
	var rows []dtdVerdict
	var body *string
	var dtdName string
	flush := func() {
		if dtdName != "" {
			s := subsets[dtdName]
			s[1] = *body
			subsets[dtdName] = s
			dtdName = ""
		}
	}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "-- dtd "):
			flush()
			f := strings.Fields(line[len("-- dtd "):])
			if len(f) != 2 {
				t.Fatalf("bad subset header %q", line)
			}
			dtdName = f[0]
			subsets[dtdName] = [2]string{f[1], ""}
			body = new(string)
		case strings.HasPrefix(line, "== "):
			flush()
			rows = append(rows, dtdVerdict{label: strings.TrimSpace(line[3:])})
			body = &rows[len(rows)-1].src
		case body != nil:
			*body += line
		}
	}
	flush()
	for i := range rows {
		r := &rows[i]
		head, doc, _ := strings.Cut(r.src, "\n")
		f := strings.Fields(head)
		if len(f) != 2 || (f[1] != "ok" && f[1] != "invalid") {
			t.Fatalf("%s: bad verdict line %q", r.label, head)
		}
		r.dtd, r.ok, r.src = f[0], f[1] == "ok", strings.TrimSpace(doc)
	}
	return subsets, rows
}

// TestDTDVerdictsMatchPinned validates every pinned document against its
// DTD and compares the verdict with the pinned one.
func TestDTDVerdictsMatchPinned(t *testing.T) {
	subsets, rows := readDTDVerdicts(t)
	if len(rows) < 30 {
		t.Fatalf("only %d pinned rows", len(rows))
	}
	for _, r := range rows {
		doc, err := dom.ParseString(r.src)
		if err != nil {
			t.Errorf("%s: parse: %v", r.label, err)
			continue
		}
		var res *dtd.Result
		if r.dtd == "-" {
			if res, err = dtd.ValidateDocument(doc); err != nil {
				t.Errorf("%s: %v", r.label, err)
				continue
			}
		} else {
			s, ok := subsets[r.dtd]
			if !ok {
				t.Fatalf("%s: no subset %q", r.label, r.dtd)
			}
			d, err := dtd.Parse(s[0], s[1])
			if err != nil {
				t.Errorf("%s: dtd.Parse: %v", r.label, err)
				continue
			}
			res = dtd.Validate(d, doc)
		}
		if res.OK() != r.ok {
			t.Errorf("%s: valid=%v, pinned %v: %v", r.label, res.OK(), r.ok, res.Err())
		}
	}
}
