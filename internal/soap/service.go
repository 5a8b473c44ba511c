package soap

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bind"
	"repro/internal/wsdl"
	"repro/internal/xsd"
)

// Handler implements one operation: a schema-valid request value in, a
// response value out. Returning a *Fault answers with exactly that fault;
// any other error becomes a Server fault whose reason is the error text.
// One-way operations return (nil, nil).
type Handler func(ctx context.Context, req *bind.Value) (*bind.Value, error)

// operation is one dispatchable operation.
type operation struct {
	def     *wsdl.Operation
	inDecl  *xsd.ElementDecl
	handler Handler
}

// Service dispatches SOAP envelopes for one wsdl:service: it owns the
// service's compiled schema, validator and binder, and routes requests by
// their body root element.
type Service struct {
	name    string
	defs    *wsdl.Definitions
	binder  *bind.Binder
	byInput map[xsd.QName]*operation
	byName  map[string]*operation
}

// NewService builds the dispatch table for the named wsdl:service,
// merging the operations of all its ports. Two operations may not claim
// the same input element — the body root is the dispatch key.
func NewService(d *wsdl.Definitions, serviceName string) (*Service, error) {
	w, ok := d.Service(serviceName)
	if !ok {
		return nil, fmt.Errorf("soap: wsdl defines no service %q", serviceName)
	}
	if d.Schema == nil {
		return nil, fmt.Errorf("soap: service %q has no <types> schema to validate against", serviceName)
	}
	s := &Service{
		name:    serviceName,
		defs:    d,
		binder:  bind.New(d.Schema, nil),
		byInput: map[xsd.QName]*operation{},
		byName:  map[string]*operation{},
	}
	for _, port := range w.Ports {
		for _, def := range port.Operations {
			if prev, ok := s.byName[def.Name]; ok {
				if prev.def.Input != def.Input || prev.def.Output != def.Output {
					return nil, fmt.Errorf("soap: operation %q bound twice with different messages", def.Name)
				}
				continue // same operation through another port
			}
			if prev, ok := s.byInput[def.Input]; ok {
				return nil, fmt.Errorf("soap: operations %q and %q share input element %s; the body root must identify one operation",
					prev.def.Name, def.Name, def.Input)
			}
			decl, ok := d.Schema.LookupElement(def.Input)
			if !ok {
				return nil, fmt.Errorf("soap: input element %s of operation %q is not declared", def.Input, def.Name)
			}
			op := &operation{def: def, inDecl: decl}
			s.byInput[def.Input] = op
			s.byName[def.Name] = op
		}
	}
	return s, nil
}

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// WSDL returns the service description document as parsed.
func (s *Service) WSDL() []byte { return s.defs.Source }

// Binder exposes the service's binder so generated stubs build values
// against the same plan and warm validator cache.
func (s *Service) Binder() *bind.Binder { return s.binder }

// Operations lists operation names in sorted order.
func (s *Service) Operations() []string {
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Register installs the handler for an operation.
func (s *Service) Register(opName string, h Handler) error {
	op, ok := s.byName[opName]
	if !ok {
		return fmt.Errorf("soap: service %q has no operation %q", s.name, opName)
	}
	op.handler = h
	return nil
}

// Response is a rendered SOAP response: body bytes plus the HTTP framing
// the transport should use.
type Response struct {
	Body        []byte
	ContentType string
	Status      int
	// Operation is the dispatched operation name ("" when dispatch never
	// reached one).
	Operation string
	// Faulted reports whether Body carries a Fault.
	Faulted bool
}

// respond renders a fault response.
func respondFault(f *Fault, opName string) *Response {
	return &Response{
		Body:        f.Envelope(),
		ContentType: ContentType(f.Version),
		Status:      f.HTTPStatus(),
		Operation:   opName,
		Faulted:     true,
	}
}

// Handle processes one request envelope end to end: structural envelope
// checks, dispatch on the body root element, schema validation of the
// payload, typed decode, the handler, and the schema-validated response.
// soapAction is the request's SOAPAction header value (quotes already
// present are tolerated), used as a cross-check, never as the primary
// dispatch key. Every outcome is a well-formed SOAP response.
func (s *Service) Handle(ctx context.Context, req []byte, soapAction string) *Response {
	env, fault := ParseEnvelope(req)
	if fault != nil {
		return respondFault(fault, "")
	}
	if env.Payload == nil {
		return respondFault(env.fault(CodeClient, "Body is empty; expected one operation element"), "")
	}
	name := xsd.QName{Space: env.Payload.NamespaceURI(), Local: env.Payload.LocalName()}
	op, ok := s.byInput[name]
	if !ok {
		return respondFault(env.fault(CodeClient,
			fmt.Sprintf("no operation of service %q accepts body element %s", s.name, name)), "")
	}
	opName := op.def.Name
	if a := trimAction(soapAction); a != "" && op.def.SOAPAction != "" && a != op.def.SOAPAction {
		return respondFault(env.fault(CodeClient,
			fmt.Sprintf("SOAPAction %q does not match operation %q (%s)", a, opName, op.def.SOAPAction)), opName)
	}
	// One walk validates the payload in place and decodes it.
	reqVal, res, err := s.binder.DecodeSubtree(env.Payload, op.inDecl)
	if !res.OK() {
		return respondFault(ViolationFault(env.Version, "request body", res.Violations), opName)
	}
	if op.handler == nil {
		f := env.fault(CodeServer, fmt.Sprintf("operation %q is not implemented by this endpoint", opName))
		r := respondFault(f, opName)
		r.Status = 501 // distinguishable from a handler crash
		return r
	}
	if err != nil {
		// Validation passed, so a decode failure is ours, not the caller's.
		return respondFault(env.fault(CodeServer, "decoding request: "+err.Error()), opName)
	}
	respVal, err := op.handler(ctx, reqVal)
	if err != nil {
		if f, ok := err.(*Fault); ok {
			if f.Version == 0 {
				f.Version = env.Version
			}
			return respondFault(f, opName)
		}
		return respondFault(env.fault(CodeServer, err.Error()), opName)
	}
	if op.def.OneWay() {
		if respVal != nil {
			return respondFault(env.fault(CodeServer,
				fmt.Sprintf("operation %q is one-way but its handler produced a response", opName)), opName)
		}
		return &Response{
			Body:        WrapPayload(env.Version, nil),
			ContentType: ContentType(env.Version),
			Status:      200,
			Operation:   opName,
		}
	}
	if respVal == nil {
		return respondFault(env.fault(CodeServer,
			fmt.Sprintf("operation %q produced no response", opName)), opName)
	}
	if respVal.Name != op.def.Output {
		return respondFault(env.fault(CodeServer,
			fmt.Sprintf("operation %q response element is %s, want %s", opName, respVal.Name, op.def.Output)), opName)
	}
	payload, err := s.binder.Marshal(respVal)
	if err != nil {
		// Marshal validates: a handler that builds an invalid response
		// faults here instead of emitting an invalid envelope.
		return respondFault(env.fault(CodeServer, "response is not schema-valid: "+err.Error()), opName)
	}
	return &Response{
		Body:        WrapPayload(env.Version, payload),
		ContentType: ContentType(env.Version),
		Status:      200,
		Operation:   opName,
	}
}

// trimAction strips the quotes SOAPAction values legally carry.
func trimAction(a string) string {
	if len(a) >= 2 && a[0] == '"' && a[len(a)-1] == '"' {
		a = a[1 : len(a)-1]
	}
	return a
}
