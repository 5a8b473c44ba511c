package xmlparser

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// nestedLoopDuplicate is the reference duplicate check: for each attribute
// in order, its first later repeat.
func nestedLoopDuplicate(attrs []Attr, key func(*Attr) (attrKey, bool)) int {
	for i := range attrs {
		ki, ok := key(&attrs[i])
		if !ok {
			continue
		}
		for j := i + 1; j < len(attrs); j++ {
			if kj, ok := key(&attrs[j]); ok && kj == ki {
				return j
			}
		}
	}
	return -1
}

// TestDuplicateAttributeParity compares firstDuplicate with the nested
// loop on random attribute lists on both sides of the small-tag threshold,
// under both identities.
func TestDuplicateAttributeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"a", "b", "c", "x", "y"}
	spaces := []string{"", "u", "v"}
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(3 * smallTag)
		// A wide name space keeps some long lists duplicate-free.
		width := 2 + rng.Intn(4*smallTag)
		attrs := make([]Attr, n)
		for i := range attrs {
			a := &attrs[i]
			a.Name.Local = names[rng.Intn(len(names))] + fmt.Sprint(rng.Intn(width))
			a.Name.Prefix = names[rng.Intn(2)]
			a.Name.Space = spaces[rng.Intn(len(spaces))]
			a.IsNamespaceDecl = rng.Intn(8) == 0
		}
		for _, key := range []func(*Attr) (attrKey, bool){literalKey, resolvedKey} {
			if got, want := firstDuplicate(attrs, key), nestedLoopDuplicate(attrs, key); got != want {
				t.Fatalf("trial %d (%d attributes): firstDuplicate = %d, nested loop = %d", trial, n, got, want)
			}
		}
	}
}

// wideTag writes <e> with the given attributes one per line, padded with
// distinct attributes to width.
func wideTag(width int, attrs ...string) string {
	var sb strings.Builder
	sb.WriteString("<e")
	for _, a := range attrs {
		sb.WriteString("\n  " + a)
	}
	for i := len(attrs); i < width; i++ {
		fmt.Fprintf(&sb, "\n  pad%d=\"\"", i)
	}
	sb.WriteString("/>")
	return sb.String()
}

// TestWideTagDuplicateReport pins what a 40-attribute tag reports: the same
// attribute and position the nested loop reports.
func TestWideTagDuplicateReport(t *testing.T) {
	for _, tc := range []struct {
		name, src, msg string
		line, col      int
	}{
		{
			// b repeats first, but a is the earliest attribute with a
			// repeat: report the second a.
			name: "a b b a",
			src:  wideTag(40, `a="1"`, `b="2"`, `b="3"`, `a="4"`),
			msg:  `duplicate attribute "a" in <e>`,
			line: 5, col: 3,
		},
		{
			name: "two prefixes, one URI",
			src:  wideTag(40, `xmlns:p="u"`, `xmlns:q="u"`, `p:x="1"`, `q:x="2"`),
			msg:  "duplicate attribute {u}x",
			line: 5, col: 3,
		},
	} {
		_, err := Parse([]byte(tc.src))
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Fatalf("%s: got %v, want a SyntaxError", tc.name, err)
		}
		if se.Msg != tc.msg || se.Pos.Line != tc.line || se.Pos.Col != tc.col {
			t.Errorf("%s: got %q at %d:%d, want %q at %d:%d", tc.name, se.Msg, se.Pos.Line, se.Pos.Col, tc.msg, tc.line, tc.col)
		}
	}
}

// TestNamespaceLookupDepth tokenizes an unprefixed chain under one new
// prefix declaration per level: every lookup of the default namespace sees
// all of them in scope, so a lookup that walks the scopes is quadratic.
func TestNamespaceLookupDepth(t *testing.T) {
	const depth = 50000
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, `<n xmlns:p%d="u">`, i)
	}
	sb.WriteString(strings.Repeat("</n>", depth))
	start := time.Now()
	toks, err := Parse([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2*depth {
		t.Fatalf("got %d tokens, want %d", len(toks), 2*depth)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("tokenizing a depth-%d xmlns chain took %v", depth, took)
	}
}
