// Package xmlparser implements an XML 1.0 (Fifth Edition) parser with
// namespace support, written from scratch for this reproduction.
//
// The parser is event-based: Parse and the Decoder type produce a stream of
// Tokens (start tags, end tags, character data, comments, processing
// instructions, doctype declarations). Higher layers (package dom) build
// trees from this stream.
//
// # Streaming entry points
//
// There is exactly one tokenizer code path with two input modes. NewDecoder
// scans a complete in-memory buffer; NewReaderDecoder (and the ParseReader /
// ParseFragmentReader conveniences) pulls input incrementally from an
// io.Reader, keeping only a compacted window of the input resident, so
// memory is bounded by the largest single token rather than the document.
// Both modes produce byte-identical tokens, positions and errors — a
// property the regression suite (TestReaderDecoderParity) and the FuzzParse
// differential fuzzer hold permanently. Decoder.Next is the pull API for
// streaming consumers: it fills a Token the caller owns, overwriting every
// field, and returns io.EOF at end of input, so one Token serves a whole
// document without a per-token copy. Decoder.Token does the same into a
// scratch slot of the decoder and returns a pointer to it.
//
// Either way a filled token is a view: its Attrs slice and its text
// payload alias decoder buffers and are valid only until the next Token
// or Next call. A caller that keeps a token across calls copies it and
// calls Detach on the copy (below); parseAll and package dom do.
//
// # Zero-copy tokens and SWAR scanning
//
// A token's payload is a []byte view into the decoder's input buffer,
// not an eagerly materialized string. Token.Bytes returns the view
// (valid only until the next Token/Next call — the same lifetime the
// scratch token always had); Token.Data materializes a string lazily
// and memoizes it; Token.Detach copies the views out so a token can be
// retained indefinitely. Consumers that only route on tokens — counters,
// filters, streaming validation of character data — therefore scan at
// near-zero bytes allocated per operation, while tree builders call
// Detach (package dom does) and pay the copy exactly once.
//
// The inner scan loops advance eight bytes per step using SWAR word
// tests to find the next delimiter in character data, attribute values
// and names, with the exact per-byte classification table applied only
// to flagged words and tails. Character data is read by one loop over
// the input window that counts lines and columns itself, decodes valid
// multi-byte runes in place and rewrites the five predefined references
// by byte compare; anything else hands the rest of the token to a
// per-rune assembler. An ordinary start tag (ASCII names, plain quoted
// values, no line break, its '>' buffered) is read in one pass over the
// window; any other tag is read rune by rune from where it starts. The
// byte after '<' picks the construct, and an end tag that closes the
// open element is matched by comparing its bytes with the start tag's
// name, whose resolved Name it reuses. These fast paths are pinned to a
// byte-at-a-time reference scanner (the noBulk mode) by differential
// tests and FuzzParse, including exact error positions.
//
// The parser enforces well-formedness as defined by the XML recommendation:
// matching start/end tags, a single root element, unique attributes,
// well-formed character and entity references, no '<' in attribute values,
// no ']]>' in character data, and legal XML characters and names. Errors
// carry line and column information.
//
// # Role in the pipeline
//
// xmlparser is the bottom layer under everything (xsd parse → normalize →
// contentmodel → codegen/vdom → validator → pxml): schema documents,
// instance documents and P-XML fragments all enter the system through
// this tokenizer before package dom shapes them into trees.
//
// # Name memo
//
// Element and attribute names go through a memo keyed by the raw name: an
// entry holds the name split at its colon, whether its parts are NCNames,
// its prefix's namespace as of a generation of the namespace scope (which
// moves only when a declaration changes what a prefix is bound to, and at
// the start of each document), and, with Options.Names, the name's ID in
// that table (Token.SymbolID). A table miss is asked again on the next
// occurrence. The memo shares the intern cache's bounds: names longer than
// maxInternLen, names met once the memo and the cache together hold
// maxInternEntries strings, and every name under the reference scanner
// (noBulk) take the per-tag path; FuzzNameMemo holds the memo to it.
//
// # Pooled decoders
//
// NewDecoder and NewReaderDecoder take decoders from a pool, and Release
// returns one. A released decoder keeps its intern cache, its namespace
// scope's list, its scratch slices and its reader window, so the next
// document does not rebuild them. Nothing else of a document survives
// Release: positions, options, internal-subset entities, open elements
// and namespace bindings are reset. The contract is the caller's:
//
//   - call Release once, after the last use of the decoder and of every
//     token it filled;
//   - after Release, those tokens are invalid: their Attrs and Bytes
//     views alias buffers the next document reuses, and their Data, if
//     not yet materialized, would intern into another document's
//     decoder;
//   - strings already taken from tokens (names, attribute values, Data
//     results, detached tokens) stay valid.
//
// A decoder that is never released is collected like any value, so a
// caller that cannot prove it owns every token simply does not release.
// TestDecoderReuseLeaksNothing and FuzzDecoderReuse hold a reused
// decoder's tokens, positions and errors to a fresh decoder's.
//
// # Concurrency
//
// A Decoder is a single-goroutine cursor over one document at a time —
// do not share one Decoder across goroutines. Distinct Decoder instances
// (and therefore concurrent Parse calls over different inputs) are fully
// independent, which is what lets xsdcheck parse many files in parallel.
// Tokens filled by Next or Token alias the decoder's buffers (see above)
// and belong to the decoder's goroutine; detached copies, such as the ones
// parseAll collects, are independent values that any goroutine may read.
package xmlparser
