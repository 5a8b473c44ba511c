// Package bind is the schema-directed data-binding subsystem: it turns a
// compiled xsd.Schema into a binding plan and uses it to decode XML
// documents into typed Go values (and canonical JSON) in the same pass as
// validation, and to marshal those values back into schema-valid XML.
//
// The premise mirrors the paper's: an XML Schema carries enough static
// information to make document construction type-safe, and the same
// compiled artifacts — resolved declarations, content-model automata,
// simple-type value spaces — decide statically which children repeat
// (maxOccurs > 1 becomes a JSON array), which text is an integer or a
// date (xsdtypes decoders), which branch of a choice was taken, and where
// mixed content degrades to ordered segments.
//
// One decoder serves both validation walks. It observes the walk through
// validator.StreamEvents and builds the value tree from its callbacks:
//
//   - the DOM front end (DecodeDocument, DecodeBytes, DecodeSubtree) is
//     one validator.ValidateDocumentEvents or ValidateElementEvents pass;
//   - the streaming front end (DecodeReader, DecodeStreamBytes) is one
//     validator.StreamValidator pass, O(depth) alongside the lazy-DFA
//     stepping, with no DOM.
//
// Either way a raw wildcard subtree (KindRaw) arrives as the text the
// validator wrote while its tokens passed, declaring the namespace
// bindings it borrows, so the value tree never points into a DOM.
//
// Marshal is the reverse direction: a Value (decoded, or built from JSON
// via FromJSON) is walked once, and the walk writes the XML while feeding
// the tokens it writes to the streaming validator, so the output is checked
// through the same content models without being parsed back. That yields
// the round-trip property decode∘marshal = id modulo canonicalization
// (attribute defaults materialized, lexical forms canonicalized, comments
// and insignificant whitespace dropped).
//
// Ownership. DecodeBytes, DecodeDocument, DecodeSubtree, DecodeReader,
// DecodeStreamBytes and FromJSON return trees the caller owns, for as
// long as it likes. DecodeBytesScoped, DecodeReaderScoped and
// FromJSONScoped lend the tree to a callback instead: the tree is valid
// only until the callback returns, when its memory is zeroed and reused
// by later calls. A callback writes out what must outlive it (the
// server writes its JSON or XML response inside the callback) and keeps
// no pointer into the tree: no *Value, Attrs, Children or Segments. A
// tree is never released by hand.
package bind
