package soap

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/dom"
	"repro/internal/xmlparser"
)

// Envelope namespaces per SOAP version.
const (
	Envelope11 = "http://schemas.xmlsoap.org/soap/envelope/"
	Envelope12 = "http://www.w3.org/2003/05/soap-envelope"
)

// Content types per SOAP version (1.1 rides text/xml, 1.2 has its own).
const (
	ContentType11 = "text/xml; charset=utf-8"
	ContentType12 = "application/soap+xml; charset=utf-8"
)

// versionNS returns the envelope namespace for a version number.
func versionNS(version int) string {
	if version == 12 {
		return Envelope12
	}
	return Envelope11
}

// ContentType returns the response content type for a version number.
func ContentType(version int) string {
	if version == 12 {
		return ContentType12
	}
	return ContentType11
}

// Envelope is a structurally parsed SOAP message.
type Envelope struct {
	// Version is 11 or 12, from the envelope namespace.
	Version int
	// Header entries in document order (nil when there is no Header).
	Header []*dom.Element
	// Body is the soap:Body element.
	Body *dom.Element
	// Payload is the single element child of Body — the document/literal
	// body. Nil for an empty body.
	Payload *dom.Element
}

// ParseEnvelope checks the SOAP structural rules and returns either the
// parsed envelope or the Fault to answer with. It never returns both.
//
// Structural rules enforced: the root is soap:Envelope in a known version
// namespace; the message has no document type declaration (SOAP 1.1 §3,
// SOAP 1.2 Part 1 §5); its element children are an optional Header
// followed by exactly one Body and nothing else; the Body has at most one
// element child (document/literal single-part bodies); no header entry
// demands mustUnderstand (this layer understands none).
func ParseEnvelope(src []byte) (*Envelope, *Fault) {
	doc, err := dom.Parse(src)
	if err != nil {
		f := &Fault{Code: CodeClient, Reason: "malformed envelope: " + err.Error()}
		var se *xmlparser.SyntaxError
		if errors.As(err, &se) {
			f.Details = []Detail{{Msg: se.Msg, Line: se.Pos.Line, Col: se.Pos.Col}}
		}
		return nil, f
	}
	root := doc.DocumentElement()
	if root == nil || root.LocalName() != "Envelope" {
		return nil, &Fault{Code: CodeClient, Reason: "request is not a SOAP envelope"}
	}
	env := &Envelope{}
	switch root.NamespaceURI() {
	case Envelope11:
		env.Version = 11
	case Envelope12:
		env.Version = 12
	default:
		return nil, &Fault{Code: CodeVersionMismatch,
			Reason: fmt.Sprintf("unsupported envelope namespace %q", root.NamespaceURI())}
	}
	if doc.Doctype != nil {
		return nil, env.fault(CodeClient, "envelope carries a document type declaration, which SOAP forbids")
	}
	ns := versionNS(env.Version)
	for _, c := range root.ChildElements() {
		switch {
		case c.NamespaceURI() == ns && c.LocalName() == "Header":
			if env.Body != nil || env.Header != nil {
				return nil, env.fault(CodeClient, "Header must be the first and only header child of Envelope")
			}
			env.Header = c.ChildElements()
			if env.Header == nil {
				env.Header = []*dom.Element{}
			}
		case c.NamespaceURI() == ns && c.LocalName() == "Body":
			if env.Body != nil {
				return nil, env.fault(CodeClient, "multiple Body elements")
			}
			env.Body = c
		default:
			return nil, env.fault(CodeClient,
				fmt.Sprintf("unexpected element <%s> in Envelope", c.TagName()))
		}
	}
	if env.Body == nil {
		return nil, env.fault(CodeClient, "envelope has no Body")
	}
	for _, h := range env.Header {
		mu := h.GetAttributeNS(ns, "mustUnderstand")
		if mu == "1" || mu == "true" {
			return nil, env.fault(CodeMustUnderstand,
				fmt.Sprintf("header <%s> requires mustUnderstand, which this service does not implement", h.TagName()))
		}
	}
	bodyKids := env.Body.ChildElements()
	if len(bodyKids) > 1 {
		return nil, env.fault(CodeClient,
			fmt.Sprintf("Body has %d element children; document/literal messages carry exactly one", len(bodyKids)))
	}
	if len(bodyKids) == 1 {
		env.Payload = bodyKids[0]
	}
	return env, nil
}

// fault builds a Fault in this envelope's SOAP version.
func (e *Envelope) fault(code, reason string) *Fault {
	return &Fault{Version: e.Version, Code: code, Reason: reason}
}

// WrapPayload frames an already-serialized body payload in an envelope of
// the given version. An empty payload produces an empty Body (the
// response to a one-way operation).
func WrapPayload(version int, payload []byte) []byte {
	ns := versionNS(version)
	var b bytes.Buffer
	b.Grow(len(payload) + 128)
	b.WriteString(`<env:Envelope xmlns:env="`)
	b.WriteString(ns)
	b.WriteString(`"><env:Body>`)
	b.Write(payload)
	b.WriteString(`</env:Body></env:Envelope>`)
	return b.Bytes()
}
