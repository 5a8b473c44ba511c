package xmlparser

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse holds three invariants over arbitrary input:
//
//  1. no panics, on either decoding path;
//  2. the whole-buffer and incremental-reader paths agree exactly —
//     same tokens (with positions) or same error;
//  3. round-trip: for accepted input, serializing the token stream and
//     reparsing it reaches a fixed point (serialize∘parse is idempotent).
func FuzzParse(f *testing.F) {
	seeds := []string{
		`<a/>`,
		`<a>hi &amp; bye</a>`,
		`<po:order xmlns:po="urn:p" po:n="1"><po:x/></po:order>`,
		"<?xml version=\"1.0\"?>\n<r a=\"v\"><!--c--><![CDATA[<]]><?pi d?></r>",
		`<a b=" x  y " c="&#9;"/>`,
		"<m>t1<i>x</i>\r\nt2</m>",
		`<a><b></a>`,
		`<a>&bad;</a>`,
		``,
		// A control byte after LF, once hidden from the word sweep by the
		// LF lane's borrow.
		"<A>\n\v\v\v\v\v\v0",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bufToks, bufErr := Parse(data)
		rdToks, rdErr := ParseReader(bytes.NewReader(data))
		if (bufErr == nil) != (rdErr == nil) {
			t.Fatalf("path divergence: buffer err=%v reader err=%v", bufErr, rdErr)
		}
		// The SWAR fast paths must agree byte-exactly (tokens, positions,
		// errors) with the byte-at-a-time reference scanner.
		refDec := NewDecoder(data, nil)
		refDec.noBulk = true
		refToks, refErr := parseAll(refDec)
		if (bufErr == nil) != (refErr == nil) {
			t.Fatalf("bulk/reference divergence: bulk err=%v ref err=%v", bufErr, refErr)
		}
		if bufErr != nil {
			if bufErr.Error() != rdErr.Error() {
				t.Fatalf("error divergence:\n  buffer: %v\n  reader: %v", bufErr, rdErr)
			}
			if bufErr.Error() != refErr.Error() {
				t.Fatalf("bulk/reference error divergence:\n  bulk: %v\n  ref:  %v", bufErr, refErr)
			}
			return
		}
		if !reflect.DeepEqual(bufToks, rdToks) {
			t.Fatalf("token divergence:\n  buffer: %#v\n  reader: %#v", bufToks, rdToks)
		}
		if !reflect.DeepEqual(bufToks, refToks) {
			t.Fatalf("bulk/reference token divergence:\n  bulk: %#v\n  ref:  %#v", bufToks, refToks)
		}
		s1, ok := serializeTokens(bufToks)
		if !ok {
			return // token stream not losslessly serializable (doctype etc.)
		}
		toks2, err := Parse([]byte(s1))
		if err != nil {
			t.Fatalf("reparse of serialized output failed: %v\ninput: %q\nserialized: %q", err, data, s1)
		}
		s2, ok := serializeTokens(toks2)
		if !ok {
			t.Fatalf("reparse produced unserializable tokens from %q", s1)
		}
		if s1 != s2 {
			t.Fatalf("round-trip not idempotent:\n  first:  %q\n  second: %q", s1, s2)
		}
	})
}

// serializeTokens writes a token stream back to XML text. It reports
// ok=false for streams it cannot serialize losslessly (doctype and XML
// declarations, or data containing delimiter sequences the lenient
// scanner tolerated).
func serializeTokens(toks []Token) (string, bool) {
	var sb strings.Builder
	for i := range toks {
		t := &toks[i]
		switch t.Kind {
		case KindStartElement:
			sb.WriteByte('<')
			sb.WriteString(t.Name.Qualified())
			for _, a := range t.Attrs {
				sb.WriteByte(' ')
				sb.WriteString(a.Name.Qualified())
				sb.WriteString(`="`)
				escapeAttr(&sb, a.Value)
				sb.WriteByte('"')
			}
			sb.WriteByte('>')
		case KindEndElement:
			sb.WriteString("</")
			sb.WriteString(t.Name.Qualified())
			sb.WriteByte('>')
		case KindText:
			escapeText(&sb, t.Data())
		case KindCData:
			if strings.Contains(t.Data(), "]]>") {
				return "", false
			}
			sb.WriteString("<![CDATA[")
			sb.WriteString(t.Data())
			sb.WriteString("]]>")
		case KindComment:
			if strings.Contains(t.Data(), "--") || strings.HasSuffix(t.Data(), "-") {
				return "", false
			}
			sb.WriteString("<!--")
			sb.WriteString(t.Data())
			sb.WriteString("-->")
		case KindProcInst:
			if strings.Contains(t.Data(), "?>") {
				return "", false
			}
			sb.WriteString("<?")
			sb.WriteString(t.Target)
			if t.Data() != "" {
				sb.WriteByte(' ')
				sb.WriteString(t.Data())
			}
			sb.WriteString("?>")
		default: // KindDoctype, KindXMLDecl
			return "", false
		}
	}
	return sb.String(), true
}

func escapeText(sb *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '>':
			sb.WriteString("&gt;")
		case '\r':
			sb.WriteString("&#13;")
		default:
			sb.WriteRune(r)
		}
	}
}

func escapeAttr(sb *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			sb.WriteString("&amp;")
		case '<':
			sb.WriteString("&lt;")
		case '"':
			sb.WriteString("&quot;")
		case '\t':
			sb.WriteString("&#9;")
		case '\n':
			sb.WriteString("&#10;")
		case '\r':
			sb.WriteString("&#13;")
		default:
			sb.WriteRune(r)
		}
	}
}
