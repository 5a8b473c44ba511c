package soap

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/wsdl"
	"repro/internal/xsd"
)

// Client calls a SOAP service's operations over HTTP. Requests are
// marshaled through the service schema's binder — which validates —
// before they leave, and response bodies are validated on arrival, so a
// Client neither sends nor accepts a schema-invalid payload. Generated
// stubs wrap Call with one typed method per operation.
type Client struct {
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client

	endpoint string
	version  int
	binder   *bind.Binder
	schema   *xsd.Schema
	byName   map[string]*wsdl.Operation
}

// maxResponseBytes bounds how much of a response body a client reads.
const maxResponseBytes = 64 << 20

// NewClient builds a client for the named wsdl:service, talking to
// endpoint. The SOAP version follows the service's first port.
func NewClient(d *wsdl.Definitions, serviceName, endpoint string) (*Client, error) {
	w, ok := d.Service(serviceName)
	if !ok {
		return nil, fmt.Errorf("soap: wsdl defines no service %q", serviceName)
	}
	if d.Schema == nil {
		return nil, fmt.Errorf("soap: service %q has no <types> schema", serviceName)
	}
	c := &Client{
		endpoint: endpoint,
		version:  11,
		binder:   bind.New(d.Schema, nil),
		schema:   d.Schema,
		byName:   map[string]*wsdl.Operation{},
	}
	for _, port := range w.Ports {
		for _, op := range port.Operations {
			if _, ok := c.byName[op.Name]; !ok {
				c.byName[op.Name] = op
			}
		}
	}
	if len(w.Ports) > 0 {
		c.version = w.Ports[0].SOAPVersion
	}
	return c, nil
}

// Binder returns the client's binder, for building request values.
func (c *Client) Binder() *bind.Binder { return c.binder }

// Call invokes one operation: req must be the operation's input element.
// For a two-way operation the decoded, validated response value is
// returned; for a one-way operation the response value is nil. A SOAP
// fault answer is returned as a *Fault error.
func (c *Client) Call(ctx context.Context, opName string, req *bind.Value) (*bind.Value, error) {
	op, ok := c.byName[opName]
	if !ok {
		return nil, fmt.Errorf("soap: client has no operation %q", opName)
	}
	if req == nil {
		return nil, fmt.Errorf("soap: operation %q requires a request value", opName)
	}
	if req.Name != op.Input {
		return nil, fmt.Errorf("soap: operation %q takes element %s, not %s", opName, op.Input, req.Name)
	}
	payload, err := c.binder.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("soap: request for %q: %w", opName, err)
	}
	body := WrapPayload(c.version, payload)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", ContentType(c.version))
	if c.version == 11 {
		// SOAP 1.1 requires the header even when empty.
		hreq.Header.Set("SOAPAction", `"`+op.SOAPAction+`"`)
	} else if op.SOAPAction != "" {
		hreq.Header.Set("Content-Type", ContentType12+`; action="`+op.SOAPAction+`"`)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	hres, err := hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hres.Body, maxResponseBytes))
	if err != nil {
		return nil, fmt.Errorf("soap: reading response for %q: %w", opName, err)
	}
	env, fault := ParseEnvelope(data)
	if fault != nil {
		return nil, fmt.Errorf("soap: response to %q (HTTP %d) is not a SOAP envelope: %s", opName, hres.StatusCode, fault.Reason)
	}
	if f, ok := ParseFault(env); ok {
		return nil, f
	}
	if op.OneWay() {
		if env.Payload != nil {
			return nil, fmt.Errorf("soap: one-way operation %q answered with a body element <%s>", opName, env.Payload.TagName())
		}
		return nil, nil
	}
	if env.Payload == nil {
		return nil, fmt.Errorf("soap: response to %q has an empty body", opName)
	}
	got := xsd.QName{Space: env.Payload.NamespaceURI(), Local: env.Payload.LocalName()}
	if got != op.Output {
		return nil, fmt.Errorf("soap: response to %q is %s, want %s", opName, got, op.Output)
	}
	decl, ok := c.schema.LookupElement(op.Output)
	if !ok {
		return nil, fmt.Errorf("soap: response element %s is not declared", op.Output)
	}
	// Validate the payload in place while decoding it: the response must be
	// schema-valid even when the far side is not this package's server.
	dom.DeclareInScopeNamespaces(env.Payload)
	v, res, err := c.binder.DecodeSubtree(env.Payload, decl)
	if !res.OK() {
		return nil, fmt.Errorf("soap: response to %q is not schema-valid: %w", opName, res.Err())
	}
	if err != nil {
		return nil, fmt.Errorf("soap: decoding response to %q: %w", opName, err)
	}
	return v, nil
}
