// Package soap frames document/literal payloads in SOAP 1.1 and 1.2
// envelopes and dispatches them to typed operation handlers.
//
// The layer is deliberately thin: an Envelope is parsed structurally
// (Envelope → optional Header → Body → one payload element), the payload
// element is validated in place against the operation's schema
// declaration, and only then decoded through internal/bind into the typed
// value a handler receives. Responses travel the reverse path — the
// handler's value is marshaled through the binder, which validates, so
// an envelope this package emits carries a schema-valid body by
// construction.
//
// Every failure mode maps to a SOAP Fault, never a bare transport error:
// malformed XML becomes a Client/Sender fault whose detail carries the
// parser's line and column, schema violations become one detail entry per
// violation with the validator's XPath-like location, a DOCTYPE (which
// both SOAP versions forbid in a message) is a Client/Sender fault, and
// an unknown body element or mustUnderstand header faults with the
// matching standard code. The fault speaks the same SOAP version as the request (1.1 when
// the request was too broken to tell).
package soap
