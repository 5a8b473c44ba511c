// Package manifest is the single list of checked-in generated binding
// packages under internal/gen/. The regen command and the codegen golden
// tests both iterate it, so a schema added here is generated and
// golden-guarded in one step.
package manifest

import (
	"repro/internal/schemas"
	"repro/internal/wml"
)

// Target describes one generated package: its embedded schema and the
// comment stamped into the file header.
type Target struct {
	// Pkg is the package (and directory) name under internal/gen/.
	Pkg string
	// Source is the schema document compiled into the package.
	Source string
	// Comment is the human-readable schema description in the header.
	Comment string
}

// Targets lists every checked-in generated package, in generation order.
var Targets = []Target{
	{Pkg: "pogen", Source: schemas.PurchaseOrderXSD, Comment: "the purchase order schema (paper Fig. 2/3)"},
	{Pkg: "evolvedgen", Source: schemas.EvolvedPurchaseOrderXSD, Comment: "the evolved purchase order schema (paper §3 choice example)"},
	{Pkg: "derivgen", Source: schemas.AddressDerivationXSD, Comment: "the address derivation schema (paper §3 extension/substitution examples)"},
	{Pkg: "wmlgen", Source: wml.Schema, Comment: "the WML subset schema (paper §5)"},
	{Pkg: "nsgen", Source: schemas.NamespacedOrderXSD, Comment: "the namespaced order schema (namespace-handling coverage)"},
	{Pkg: "mixgen", Source: schemas.ComplexGroupsXSD, Comment: "the nested-groups schema (group-promotion coverage)"},
	{Pkg: "wildgen", Source: schemas.WildcardEnvelopeXSD, Comment: "the wildcard envelope schema (lax any/anyAttribute coverage)"},
	{Pkg: "unqualgen", Source: schemas.UnqualifiedOrderXSD, Comment: "the unqualified-locals order schema (default namespace undeclared on local elements)"},
}

// WSDLTarget describes one generated SOAP stub package: its embedded
// WSDL, the service it binds, and the header comment.
type WSDLTarget struct {
	// Pkg is the package (and directory) name under internal/gen/.
	Pkg string
	// Source is the WSDL document compiled into the package.
	Source string
	// Service is the wsdl:service the stubs bind.
	Service string
	// Comment is the human-readable WSDL description in the header.
	Comment string
}

// WSDLTargets lists every checked-in generated stub package.
var WSDLTargets = []WSDLTarget{
	{Pkg: "calcgen", Source: schemas.CalcWSDL, Service: "Calc", Comment: "the calculator WSDL (SOAP 1.1 corpus service)"},
	{Pkg: "ordersgen", Source: schemas.OrdersWSDL, Service: "Orders", Comment: "the orders WSDL (SOAP 1.2, two embedded schemas)"},
}
