package soap

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/dom"
	"repro/internal/wsdl"
)

// calcWSDL mirrors the wsdl package's fixture: Add (request/response) and
// Ping (one-way), bodies in urn:calc.
const calcWSDL = `<?xml version="1.0"?>
<wsdl:definitions name="Calc" targetNamespace="urn:calc:svc"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/"
    xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/"
    xmlns:tns="urn:calc:svc"
    xmlns:c="urn:calc">
  <wsdl:types>
    <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"
               targetNamespace="urn:calc" elementFormDefault="qualified">
      <xs:element name="AddRequest">
        <xs:complexType>
          <xs:sequence>
            <xs:element name="a" type="xs:int"/>
            <xs:element name="b" type="xs:int"/>
          </xs:sequence>
        </xs:complexType>
      </xs:element>
      <xs:element name="AddResponse">
        <xs:complexType>
          <xs:sequence><xs:element name="sum" type="xs:int"/></xs:sequence>
        </xs:complexType>
      </xs:element>
      <xs:element name="Ping" type="xs:string"/>
    </xs:schema>
  </wsdl:types>
  <wsdl:message name="AddIn"><wsdl:part name="body" element="c:AddRequest"/></wsdl:message>
  <wsdl:message name="AddOut"><wsdl:part name="body" element="c:AddResponse"/></wsdl:message>
  <wsdl:message name="PingIn"><wsdl:part name="body" element="c:Ping"/></wsdl:message>
  <wsdl:portType name="CalcPort">
    <wsdl:operation name="Add">
      <wsdl:input message="tns:AddIn"/>
      <wsdl:output message="tns:AddOut"/>
    </wsdl:operation>
    <wsdl:operation name="Ping">
      <wsdl:input message="tns:PingIn"/>
    </wsdl:operation>
  </wsdl:portType>
  <wsdl:binding name="CalcBinding" type="tns:CalcPort">
    <soap:binding style="document" transport="http://schemas.xmlsoap.org/soap/http"/>
    <wsdl:operation name="Add">
      <soap:operation soapAction="urn:calc:add"/>
      <wsdl:input><soap:body use="literal"/></wsdl:input>
      <wsdl:output><soap:body use="literal"/></wsdl:output>
    </wsdl:operation>
    <wsdl:operation name="Ping">
      <wsdl:input><soap:body use="literal"/></wsdl:input>
    </wsdl:operation>
  </wsdl:binding>
  <wsdl:service name="Calc">
    <wsdl:port name="CalcSOAP" binding="tns:CalcBinding">
      <soap:address location="http://localhost/v1/soap/Calc"/>
    </wsdl:port>
  </wsdl:service>
</wsdl:definitions>`

// newCalc builds the service with a real Add handler (sums the operands)
// and a Ping handler.
func newCalc(t testing.TB) *Service {
	t.Helper()
	d, err := wsdl.Parse([]byte(calcWSDL), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewService(d, "Calc")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("Add", func(_ context.Context, req *bind.Value) (*bind.Value, error) {
		sum := 0
		for _, c := range req.Children {
			n, err := strconv.Atoi(c.Simple.String())
			if err != nil {
				return nil, err
			}
			sum += n
		}
		return s.Binder().FromJSON([]byte(fmt.Sprintf(`{"$element":"AddResponse","sum":%d}`, sum)))
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("Ping", func(_ context.Context, _ *bind.Value) (*bind.Value, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func env11(body string) string {
	return `<e:Envelope xmlns:e="` + Envelope11 + `"><e:Body>` + body + `</e:Body></e:Envelope>`
}

func env12(body string) string {
	return `<e:Envelope xmlns:e="` + Envelope12 + `"><e:Body>` + body + `</e:Body></e:Envelope>`
}

const addReq = `<c:AddRequest xmlns:c="urn:calc"><c:a>19</c:a><c:b>23</c:b></c:AddRequest>`

func TestRoundTripBothVersions(t *testing.T) {
	s := newCalc(t)
	for _, tc := range []struct {
		name    string
		req     string
		version int
	}{
		{"soap11", env11(addReq), 11},
		{"soap12", env12(addReq), 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := s.Handle(context.Background(), []byte(tc.req), "")
			if r.Status != 200 || r.Faulted {
				t.Fatalf("status %d faulted=%v body %s", r.Status, r.Faulted, r.Body)
			}
			if r.Operation != "Add" {
				t.Errorf("operation = %q", r.Operation)
			}
			if want := ContentType(tc.version); r.ContentType != want {
				t.Errorf("content type = %q, want %q", r.ContentType, want)
			}
			env, fault := ParseEnvelope(r.Body)
			if fault != nil {
				t.Fatalf("response does not parse: %v", fault)
			}
			if env.Version != tc.version {
				t.Errorf("response version = %d, want %d", env.Version, tc.version)
			}
			if env.Payload == nil || env.Payload.LocalName() != "AddResponse" {
				t.Fatalf("payload = %v", env.Payload)
			}
			if got := env.Payload.TextContent(); got != "42" {
				t.Errorf("sum = %q, want 42", got)
			}
		})
	}
}

func TestOneWay(t *testing.T) {
	s := newCalc(t)
	r := s.Handle(context.Background(), []byte(env11(`<c:Ping xmlns:c="urn:calc">hi</c:Ping>`)), "")
	if r.Status != 200 || r.Faulted || r.Operation != "Ping" {
		t.Fatalf("status %d faulted=%v op %q: %s", r.Status, r.Faulted, r.Operation, r.Body)
	}
	env, fault := ParseEnvelope(r.Body)
	if fault != nil || env.Payload != nil {
		t.Fatalf("one-way response should have an empty body: %v %v", fault, env)
	}
}

// TestFaultTable drives every failure mode through Handle and checks the
// fault code, HTTP status and details. No case may produce a 500 (the
// only 500s come from handler failures, covered separately).
func TestFaultTable(t *testing.T) {
	s := newCalc(t)
	mu11 := `<e:Envelope xmlns:e="` + Envelope11 + `"><e:Header><h:tx xmlns:h="urn:h" e:mustUnderstand="1"/></e:Header><e:Body>` + addReq + `</e:Body></e:Envelope>`
	mu12 := `<e:Envelope xmlns:e="` + Envelope12 + `"><e:Header><h:tx xmlns:h="urn:h" e:mustUnderstand="true"/></e:Header><e:Body>` + addReq + `</e:Body></e:Envelope>`
	cases := []struct {
		name       string
		req        string
		action     string
		wantStatus int
		wantCode   string // as rendered: 1.1 names for v11, 1.2 names for v12
		reason     string
	}{
		{"malformed xml", `<e:Envelope xmlns:e="` + Envelope11 + `"><unclosed`, "", 400, "Client", "malformed envelope"},
		{"not an envelope", `<root/>`, "", 400, "Client", "not a SOAP envelope"},
		{"unknown envelope ns", `<e:Envelope xmlns:e="urn:soap13"><e:Body/></e:Envelope>`, "", 400, "VersionMismatch", "unsupported envelope namespace"},
		{"no body", `<e:Envelope xmlns:e="` + Envelope11 + `"/>`, "", 400, "Client", "no Body"},
		{"empty body", env11(``), "", 400, "Client", "Body is empty"},
		{"two body children", env11(addReq + addReq), "", 400, "Client", "exactly one"},
		{"stray envelope child", `<e:Envelope xmlns:e="` + Envelope11 + `"><e:Body/><e:Extra/></e:Envelope>`, "", 400, "Client", "unexpected element"},
		{"unknown body root", env11(`<x:Nope xmlns:x="urn:calc"/>`), "", 400, "Client", "no operation"},
		{"mustUnderstand 1.1", mu11, "", 400, "MustUnderstand", "mustUnderstand"},
		{"mustUnderstand 1.2", mu12, "", 400, "MustUnderstand", "mustUnderstand"},
		{"schema violation", env11(`<c:AddRequest xmlns:c="urn:calc"><c:a>x</c:a><c:b>2</c:b></c:AddRequest>`), "", 400, "Client", "not schema-valid"},
		{"xsi nil on non-nillable", env11(`<c:AddRequest xmlns:c="urn:calc" xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:nil="true"/>`), "", 400, "Client", "not schema-valid"},
		{"soapaction mismatch", env11(addReq), `"urn:calc:subtract"`, 400, "Client", "SOAPAction"},
		{"schema violation 1.2", env12(`<c:AddRequest xmlns:c="urn:calc"><c:b>2</c:b></c:AddRequest>`), "", 400, "Sender", "not schema-valid"},
		{"doctype 1.1", `<!DOCTYPE e:Envelope>` + env11(addReq), "", 400, "Client", "document type declaration"},
		{"doctype 1.2", `<!DOCTYPE e:Envelope [<!ENTITY n "19">]>` + env12(`<c:AddRequest xmlns:c="urn:calc"><c:a>&n;</c:a><c:b>23</c:b></c:AddRequest>`), "", 400, "Sender", "document type declaration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := s.Handle(context.Background(), []byte(tc.req), tc.action)
			if r.Status != tc.wantStatus {
				t.Errorf("status = %d, want %d\n%s", r.Status, tc.wantStatus, r.Body)
			}
			if !r.Faulted {
				t.Fatalf("want a fault, got %s", r.Body)
			}
			env, fault := ParseEnvelope(r.Body)
			if fault != nil {
				t.Fatalf("fault envelope does not parse: %v\n%s", fault, r.Body)
			}
			f, ok := ParseFault(env)
			if !ok {
				t.Fatalf("fault body is not a Fault: %s", r.Body)
			}
			if f.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", f.Code, tc.wantCode)
			}
			if !strings.Contains(f.Reason, tc.reason) {
				t.Errorf("reason %q does not mention %q", f.Reason, tc.reason)
			}
		})
	}
}

// TestFaultDetails checks the structured detail entries: parse errors
// carry line/col, schema violations carry the validator's path.
func TestFaultDetails(t *testing.T) {
	s := newCalc(t)
	r := s.Handle(context.Background(), []byte("<e:Envelope xmlns:e=\""+Envelope11+"\">\n  <e:Body><broken</e:Body></e:Envelope>"), "")
	env, _ := ParseEnvelope(r.Body)
	f, _ := ParseFault(env)
	if len(f.Details) != 1 || f.Details[0].Line != 2 || f.Details[0].Col <= 0 {
		t.Errorf("parse-error detail = %+v, want line 2 with a column", f.Details)
	}

	r = s.Handle(context.Background(), []byte(env11(`<c:AddRequest xmlns:c="urn:calc"><c:a>x</c:a><c:b>99999999999</c:b></c:AddRequest>`)), "")
	env, _ = ParseEnvelope(r.Body)
	f, _ = ParseFault(env)
	if len(f.Details) != 2 {
		t.Fatalf("details = %+v, want one per violation", f.Details)
	}
	for _, d := range f.Details {
		if !strings.Contains(d.Path, "AddRequest") {
			t.Errorf("violation path %q does not locate the payload", d.Path)
		}
	}
}

// TestHeadersIgnoredUnlessMustUnderstand lets ordinary headers pass.
func TestHeadersIgnoredUnlessMustUnderstand(t *testing.T) {
	s := newCalc(t)
	req := `<e:Envelope xmlns:e="` + Envelope11 + `"><e:Header><h:trace xmlns:h="urn:h">abc</h:trace></e:Header><e:Body>` + addReq + `</e:Body></e:Envelope>`
	r := s.Handle(context.Background(), []byte(req), "")
	if r.Faulted {
		t.Fatalf("informational header faulted: %s", r.Body)
	}
}

func TestSOAPActionMatch(t *testing.T) {
	s := newCalc(t)
	r := s.Handle(context.Background(), []byte(env11(addReq)), `"urn:calc:add"`)
	if r.Faulted {
		t.Fatalf("matching quoted SOAPAction rejected: %s", r.Body)
	}
}

func TestHandlerFailures(t *testing.T) {
	d, err := wsdl.Parse([]byte(calcWSDL), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewService(d, "Calc")
	if err != nil {
		t.Fatal(err)
	}
	// Unregistered operation: a fault, 501, never a bare 500.
	r := s.Handle(context.Background(), []byte(env11(addReq)), "")
	if r.Status != 501 || !r.Faulted {
		t.Fatalf("unregistered op: status %d faulted %v", r.Status, r.Faulted)
	}
	env, _ := ParseEnvelope(r.Body)
	if f, ok := ParseFault(env); !ok || f.Code != "Server" {
		t.Fatalf("unregistered op fault = %+v", f)
	}

	// A handler error is a genuine Server fault, 500 with a Fault body.
	if err := s.Register("Add", func(context.Context, *bind.Value) (*bind.Value, error) {
		return nil, fmt.Errorf("database on fire")
	}); err != nil {
		t.Fatal(err)
	}
	r = s.Handle(context.Background(), []byte(env11(addReq)), "")
	if r.Status != 500 || !r.Faulted {
		t.Fatalf("handler error: status %d faulted %v", r.Status, r.Faulted)
	}
	env, _ = ParseEnvelope(r.Body)
	if f, ok := ParseFault(env); !ok || !strings.Contains(f.Reason, "database on fire") {
		t.Fatalf("fault = %+v", f)
	}

	// A handler may fault explicitly with full control.
	if err := s.Register("Add", func(context.Context, *bind.Value) (*bind.Value, error) {
		return nil, &Fault{Code: CodeClient, Reason: "quota exceeded"}
	}); err != nil {
		t.Fatal(err)
	}
	r = s.Handle(context.Background(), []byte(env12(addReq)), "")
	if r.Status != 400 {
		t.Fatalf("explicit fault status = %d", r.Status)
	}
	env, _ = ParseEnvelope(r.Body)
	if f, ok := ParseFault(env); !ok || f.Code != "Sender" || f.Version != 12 {
		t.Fatalf("explicit fault should inherit the request version: %+v", f)
	}

	// A handler returning an invalid value faults at Marshal, not emits.
	if err := s.Register("Add", func(context.Context, *bind.Value) (*bind.Value, error) {
		v, err := s.Binder().FromJSON([]byte(`{"$element":"AddResponse","sum":7}`))
		if err != nil {
			return nil, err
		}
		v.Children = nil // now missing the required sum child
		return v, nil
	}); err != nil {
		t.Fatal(err)
	}
	r = s.Handle(context.Background(), []byte(env11(addReq)), "")
	if r.Status != 500 || !r.Faulted {
		t.Fatalf("invalid response escaped: status %d %s", r.Status, r.Body)
	}
	if !strings.Contains(string(r.Body), "not schema-valid") {
		t.Fatalf("marshal fault reason missing: %s", r.Body)
	}
}

// FuzzSOAPRoundTrip feeds arbitrary bytes through Handle: the response
// must always be a parseable SOAP envelope with a sane status, and a
// faulted response must carry a Fault element.
func FuzzSOAPRoundTrip(f *testing.F) {
	s := newCalc(f)
	f.Add([]byte(env11(addReq)))
	f.Add([]byte(env12(addReq)))
	f.Add([]byte(env11(`<c:Ping xmlns:c="urn:calc">x</c:Ping>`)))
	f.Add([]byte(env11(``)))
	f.Add([]byte(`<nope>`))
	f.Add([]byte(`<e:Envelope xmlns:e="` + Envelope11 + `"><e:Header><h:x xmlns:h="u" e:mustUnderstand="1"/></e:Header><e:Body/></e:Envelope>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := s.Handle(context.Background(), data, "")
		switch r.Status {
		case 200, 400, 500, 501:
		default:
			t.Fatalf("status %d", r.Status)
		}
		if _, err := dom.Parse(r.Body); err != nil {
			t.Fatalf("response is not well-formed: %v\n%s", err, r.Body)
		}
		env, fault := ParseEnvelope(r.Body)
		if fault != nil {
			t.Fatalf("response envelope rejected: %v\n%s", fault, r.Body)
		}
		if _, ok := ParseFault(env); ok != r.Faulted {
			t.Fatalf("Faulted=%v but ParseFault=%v\n%s", r.Faulted, ok, r.Body)
		}
	})
}
