package xmlparser

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"
)

// XMLNamespace is the namespace URI bound to the reserved "xml" prefix.
const XMLNamespace = "http://www.w3.org/XML/1998/namespace"

// XMLNSNamespace is the namespace URI of namespace declarations themselves.
const XMLNSNamespace = "http://www.w3.org/2000/xmlns/"

// Options configures a Decoder.
type Options struct {
	// Namespaces enables namespace processing (resolution of prefixes,
	// rejection of undeclared prefixes). It defaults to true in
	// NewDecoder when Options is nil.
	Namespaces bool
	// Fragment permits parsing of document fragments: multiple root
	// elements and character data at the top level are allowed, and the
	// XML declaration and doctype may be absent (they may be absent in
	// documents too).
	Fragment bool
	// Entities supplies additional named entities, beyond the five
	// predefined ones and those declared in the internal DTD subset.
	Entities map[string]string
	// Names, when set, gives every start tag's resolved name its ID in the
	// table (Token.SymbolID). It needs namespace processing.
	Names NameTable
}

// defaultOptions returns the options used when the caller passes nil.
func defaultOptions() Options { return Options{Namespaces: true} }

// openElem tracks an open start tag for end-tag matching. It holds no
// pointer, so a deep document's stack is one flat block the collector
// does not scan and growing it copies no pointers: the name is the index
// of its memo entry (Decoder.memo), or, for a name the memo does not hold,
// the complement of its index in Decoder.unmemo. A deep chain repeats a
// few names, so its levels cost a few words each.
type openElem struct {
	name      int32
	nameCols  int32 // columns the raw name spans (it holds no newline)
	line, col int32 // the start tag's position, for error messages
	nsMark    int32 // Decoder.ns mark before this element's declarations
	bumped    bool  // its declarations changed a binding: popping them bumps nsGen
}

// openName is the name of an open element the name memo does not hold.
type openName struct {
	name Name
	raw  string
}

// clamp32 narrows a position or count for an openElem. Values past 2^31
// need gigabytes of input on one line or in one name; they read as the
// largest int32.
func clamp32(n int) int32 { return int32(min(n, math.MaxInt32)) }

// Decoder parses a single XML document (or fragment) and yields Tokens.
//
// A Decoder reads either from a byte slice (NewDecoder) or incrementally
// from an io.Reader (NewReaderDecoder). Both modes share one scanning code
// path: src is the buffered window of the input, and in reader mode the
// window is refilled on demand and compacted at token boundaries, so
// memory stays proportional to the largest single token rather than to
// the document size.
//
// Decoders are pooled: both constructors take one from a pool, and
// Release returns it once the document is done with.
type Decoder struct {
	rd   io.Reader // nil in whole-buffer mode
	src  []byte    // buffered window of the input
	off  int       // read position within src
	base int       // bytes discarded before src[0] (reader mode only)
	line int
	col  int

	// srcDone means no further input will be appended to src; readErr
	// holds a sticky non-EOF reader error, surfaced instead of the
	// syntax error the truncation would otherwise produce.
	srcDone   bool
	readErr   error
	zeroReads int

	opts Options
	// ns holds the namespace bindings of the open elements; stack the
	// elements themselves, and unmemo the names of those whose name the
	// memo does not hold.
	ns       Bindings
	stack    []openElem
	unmemo   []openName
	seenRoot bool
	seenDecl bool
	started  bool
	eof      bool

	// endPending marks a self-closing tag whose end token, named endName
	// at endPos, is the next token.
	endPending bool
	endName    Name
	endPos     Pos

	// internalEntities holds general entities declared in the internal
	// DTD subset.
	internalEntities map[string]string
	entityDepth      int

	// tok is the scratch slot Token returns a pointer into; buf is the
	// assembly buffer for attribute values and slow-path text (tokens
	// whose runs needed rewriting return views of it); attrs is the
	// scratch attribute slice reused across start tags; interned caches
	// small repeated strings (names, values, text runs) so token streams
	// over repetitive documents stop allocating once warm.
	tok      Token
	buf      []byte
	attrs    []Attr
	interned map[string]string

	// names is the name memo (nameEntry), keyed by raw name, and memo its
	// entries by index (nameEntry.idx); nameSlab is the chunk new entries
	// are carved from, and attrNames the entry of each attribute of the
	// current tag (nil when it has none). nsGen numbers the states of the
	// namespace scope that resolutions are memoized against: it moves at
	// the start of every document and whenever a declaration changes, or
	// popping one restores, a binding.
	names     map[string]*nameEntry
	memo      []*nameEntry
	nameSlab  []nameEntry
	attrNames []*nameEntry
	nsGen     uint64

	// window is the reader-mode buffer a released decoder kept; a reader
	// decoder's src starts as it.
	window []byte

	// noBulk disables every bulk/SWAR scanning path, forcing the
	// byte-at-a-time reference scanner. It exists for position-parity
	// tests: both modes must report identical Line/Col/Offset.
	noBulk bool
}

// Interning bounds: strings longer than maxInternLen are never cached,
// and the intern cache and the name memo together stop growing at
// maxInternEntries so hostile input cannot hold unbounded memory.
const (
	maxInternLen     = 64
	maxInternEntries = 1024
)

// internBytes returns string(b), serving repeated small strings from the
// decoder's intern cache without allocating.
func (d *Decoder) internBytes(b []byte) string {
	if len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.cached() < maxInternEntries {
		if d.interned == nil {
			d.interned = make(map[string]string)
		}
		d.interned[s] = s
	}
	return s
}

// cached counts the strings the intern cache and the name memo hold.
func (d *Decoder) cached() int { return len(d.interned) + len(d.names) }

// decoders recycles Decoders between documents: a released decoder keeps
// its intern cache, its scratch slices and its reader window, so a warm
// decoder does not rebuild them for every document.
var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// A pooled decoder keeps at most poolLimit open elements, attributes per
// tag and namespace bindings, poolText bytes of assembly buffer and
// poolWindow bytes of reader window: what one large document grew beyond
// that is left to the collector, not held for later documents.
const (
	poolLimit  = 256
	poolText   = 4096
	poolWindow = 4 * readChunk
)

// NewDecoder creates a Decoder over src. A nil opts selects the defaults
// (namespace processing on, document mode).
func NewDecoder(src []byte, opts *Options) *Decoder {
	return decoders.Get().(*Decoder).start(nil, src, opts)
}

// NewReaderDecoder creates a Decoder that pulls input incrementally from r.
// The decoder buffers only a window of the input (compacted as tokens are
// consumed), so whole documents never need to be resident in memory. A nil
// opts selects the defaults (namespace processing on, document mode).
func NewReaderDecoder(r io.Reader, opts *Options) *Decoder {
	return decoders.Get().(*Decoder).start(r, nil, opts)
}

// start sets a cleared decoder up for a document read from r or, when r
// is nil, held in src.
func (d *Decoder) start(r io.Reader, src []byte, opts *Options) *Decoder {
	d.rd, d.line, d.col = r, 1, 1
	d.nsGen++
	d.opts = defaultOptions()
	if opts != nil {
		d.opts = *opts
	}
	if r == nil {
		d.src, d.srcDone = src, true
	} else {
		d.src = d.window[:0]
	}
	return d
}

// Release returns the decoder to the pool the constructors draw from. Only
// the owner of the decoder and of every token it filled may call it, once,
// after the last use of both: a released decoder may already be parsing
// another document, so the tokens' Attrs and Bytes views and their
// not-yet-materialized Data are invalid from then on. Strings already
// taken from tokens (names, attribute values, Data results) stay valid. A
// decoder that is never released is simply collected.
//
// Nothing of the document survives into the next one: the position,
// options, entities, open elements and namespace bindings are reset. The
// intern cache is kept, holding only strings, and is emptied once full.
func (d *Decoder) Release() {
	d.reset()
	decoders.Put(d)
}

// reset clears the document's state from the decoder, keeping what
// Release keeps.
func (d *Decoder) reset() {
	window := d.window
	if d.rd != nil {
		window = d.src
	}
	if cap(window) > poolWindow {
		window = nil
	}
	buf := d.buf
	if cap(buf) > poolText {
		buf = nil
	}
	memo := d.memo
	if d.cached() >= maxInternEntries {
		clear(d.interned)
		clear(d.names)
		clear(memo)
		memo = memo[:0]
	}
	d.ns.reset()
	*d = Decoder{window: window[:0], buf: buf[:0], attrs: clearedScratch(d.attrs),
		stack: clearedScratch(d.stack), unmemo: clearedScratch(d.unmemo), interned: d.interned, ns: d.ns,
		names: d.names, memo: memo, nameSlab: d.nameSlab, attrNames: clearedScratch(d.attrNames), nsGen: d.nsGen}
}

// clearedScratch empties a scratch slice for a pooled decoder, so that it
// holds no strings of the document, or drops it if a document grew it past
// poolLimit.
func clearedScratch[E any](s []E) []E {
	if cap(s) > poolLimit {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// Parse parses a complete document and returns all tokens.
func Parse(src []byte) ([]Token, error) {
	return parseAll(NewDecoder(src, nil))
}

// ParseFragment parses a document fragment: multiple top-level elements and
// top-level character data are permitted.
func ParseFragment(src []byte, extraEntities map[string]string) ([]Token, error) {
	o := defaultOptions()
	o.Fragment = true
	o.Entities = extraEntities
	return parseAll(NewDecoder(src, &o))
}

// ParseReader parses a complete document incrementally from r.
func ParseReader(r io.Reader) ([]Token, error) {
	return parseAll(NewReaderDecoder(r, nil))
}

// ParseFragmentReader parses a document fragment incrementally from r.
func ParseFragmentReader(r io.Reader, extraEntities map[string]string) ([]Token, error) {
	o := defaultOptions()
	o.Fragment = true
	o.Entities = extraEntities
	return parseAll(NewReaderDecoder(r, &o))
}

func parseAll(d *Decoder) ([]Token, error) {
	defer d.Release()
	var toks []Token
	for {
		t, err := d.Token()
		if err != nil {
			return nil, err
		}
		if t == nil {
			return toks, nil
		}
		// Returned tokens are views into decoder buffers; the retained
		// copies must own their payloads.
		tc := *t
		tc.Detach()
		toks = append(toks, tc)
	}
}

// readChunk is the reader-mode refill granularity.
const readChunk = 8192

// compactThreshold is how many consumed bytes accumulate before the
// window is shifted down (reader mode only).
const compactThreshold = 4096

// readMore reads one chunk of reader input straight into the window's
// spare capacity, growing the window only when less than a chunk is free.
// Compaction keeps the window's length bounded, so a warm window stops
// growing and refills allocate nothing.
func (d *Decoder) readMore() {
	if d.srcDone {
		return
	}
	d.src = slices.Grow(d.src, readChunk)
	end := len(d.src)
	n, err := d.rd.Read(d.src[end : end+readChunk])
	if n > 0 {
		d.zeroReads = 0
		d.src = d.src[:end+n]
	} else if err == nil {
		// Tolerate the occasional (0, nil) read, but refuse to spin on a
		// reader that never makes progress.
		d.zeroReads++
		if d.zeroReads >= 100 {
			d.srcDone = true
			d.readErr = io.ErrNoProgress
		}
	}
	if err != nil {
		d.srcDone = true
		if err != io.EOF {
			d.readErr = err
		}
	}
}

// fill ensures at least n bytes are buffered past the read position, or
// that the input is exhausted.
func (d *Decoder) fill(n int) {
	for !d.srcDone && len(d.src)-d.off < n {
		d.readMore()
	}
}

// compact discards consumed input from the window. It must only run at
// token boundaries: scanning functions hold indexes into src.
func (d *Decoder) compact() {
	if d.rd == nil || d.off < compactThreshold {
		return
	}
	n := copy(d.src, d.src[d.off:])
	d.src = d.src[:n]
	d.base += d.off
	d.off = 0
}

// pos returns the current input position.
func (d *Decoder) pos() Pos { return Pos{Line: d.line, Col: d.col, Offset: d.base + d.off} }

var nlByte = []byte{'\n'}

// advancePos consumes n buffered bytes, updating line/col in bulk so
// scanned runs never pay per-byte position accounting. The accounting is
// exactly next()'s: one column per rune, with each invalid UTF-8 byte
// counting as one rune (which is precisely how utf8.RuneCount decodes),
// and only LF — never CR — starting a new line.
func (d *Decoder) advancePos(n int) {
	seg := d.src[d.off : d.off+n]
	d.off += n
	if j := bytes.LastIndexByte(seg, '\n'); j >= 0 {
		d.line += bytes.Count(seg, nlByte)
		d.col = 1 + utf8.RuneCount(seg[j+1:])
	} else {
		d.col += utf8.RuneCount(seg)
	}
}

// nonASCIIRun returns the maximal run of non-ASCII bytes at the read
// position without consuming it, refilling in reader mode so a multi-byte
// sequence is never split at the window edge. UTF-8 continuation and lead
// bytes are all >= 0x80, so the run boundary is always a rune boundary.
func (d *Decoder) nonASCIIRun() []byte {
	k := d.off
	for {
		for k < len(d.src) && d.src[k] >= 0x80 {
			k++
		}
		if k < len(d.src) || d.srcDone {
			return d.src[d.off:k]
		}
		d.readMore()
	}
}

// byteToken fills t with a token whose payload is a zero-copy byte view.
func (d *Decoder) byteToken(t *Token, kind Kind, data []byte, p Pos) {
	t.set(kind, Name{}, p)
	t.data, t.d = data, d
}

// errf creates a SyntaxError at the given position.
func (d *Decoder) errf(p Pos, format string, args ...any) error {
	return &SyntaxError{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

// peek returns the next rune without consuming it, or -1 at end of input.
// A buffered ASCII byte is its own rune: only a byte >= 0x80 is decoded.
func (d *Decoder) peek() rune {
	if !d.noBulk && d.off < len(d.src) {
		if c := d.src[d.off]; c < utf8.RuneSelf {
			return rune(c)
		}
	}
	return d.peekRune()
}

// peekRune is peek's reference path: it buffers a whole rune and decodes
// it.
func (d *Decoder) peekRune() rune {
	d.fill(utf8.UTFMax)
	if d.off >= len(d.src) {
		return -1
	}
	r, _ := utf8.DecodeRune(d.src[d.off:])
	return r
}

// peekByte returns the byte n bytes ahead, or 0 past the end of input
// (only meaningful for ASCII lookahead).
func (d *Decoder) peekByte(n int) byte {
	d.fill(n + 1)
	if d.off+n >= len(d.src) {
		return 0
	}
	return d.src[d.off+n]
}

// next consumes and returns the next rune, or -1 at end of input. A
// buffered ASCII byte other than LF is consumed without decoding.
func (d *Decoder) next() rune {
	if !d.noBulk && d.off < len(d.src) {
		if c := d.src[d.off]; c < utf8.RuneSelf && c != '\n' {
			d.off++
			d.col++
			return rune(c)
		}
	}
	return d.nextRune()
}

// nextRune is next's reference path: it decodes one rune and accounts
// for it.
func (d *Decoder) nextRune() rune {
	d.fill(utf8.UTFMax)
	if d.off >= len(d.src) {
		return -1
	}
	r, size := utf8.DecodeRune(d.src[d.off:])
	if r == utf8.RuneError && size == 1 {
		// Invalid UTF-8: represent as the error rune; validity checks
		// will reject it because RuneError is legal but we flag the
		// encoding problem explicitly here.
		d.off += size
		d.col++
		return r
	}
	d.off += size
	if r == '\n' {
		d.line++
		d.col = 1
	} else {
		d.col++
	}
	return r
}

// hasPrefix reports whether the remaining input starts with s.
func (d *Decoder) hasPrefix(s string) bool {
	d.fill(len(s))
	if len(d.src)-d.off < len(s) {
		return false
	}
	return string(d.src[d.off:d.off+len(s)]) == s
}

// skip consumes the ASCII, newline-free literal s; the caller must have
// verified (and so buffered) it.
func (d *Decoder) skip(s string) {
	if !d.noBulk {
		d.off += len(s)
		d.col += len(s)
		return
	}
	for range s {
		d.next()
	}
}

// skipSpace consumes whitespace and reports whether any was present.
func (d *Decoder) skipSpace() bool {
	if d.noBulk {
		return d.skipSpaceRunes()
	}
	seen := false
	for {
		if d.off >= len(d.src) {
			d.fill(1)
			if d.off >= len(d.src) {
				return seen
			}
		}
		switch d.src[d.off] {
		case ' ', '\t', '\r':
			d.col++
		case '\n':
			d.line++
			d.col = 1
		default:
			return seen
		}
		d.off++
		seen = true
	}
}

// skipSpaceRunes is skipSpace's reference path, one rune at a time.
func (d *Decoder) skipSpaceRunes() bool {
	seen := false
	for {
		r := d.peek()
		if r < 0 || !IsSpace(r) {
			return seen
		}
		d.next()
		seen = true
	}
}

// Token returns the next token, or (nil, nil) at end of input. The token
// is the decoder's scratch slot, refilled by the following Token or Next
// call: callers that keep a token across calls must copy it and Detach
// the copy.
func (d *Decoder) Token() (*Token, error) {
	if err := d.Next(&d.tok); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, err
	}
	return &d.tok, nil
}

// Next fills t with the next token, or returns io.EOF at end of input. It
// is the pull API of streaming consumers (validator.StreamValidator). Every
// field of t is overwritten, and the filled token's payload and Attrs view
// decoder buffers until the following Token or Next call. On an error t
// holds no meaningful token.
func (d *Decoder) Next(t *Token) error {
	d.compact()
	ok, err := d.token(t)
	if err != nil {
		if d.readErr != nil {
			// A truncated window produces misleading syntax errors;
			// report the underlying read failure instead.
			return d.readErr
		}
		return err
	}
	if !ok {
		return io.EOF
	}
	return nil
}

// token fills t with the next token; ok is false at end of input.
func (d *Decoder) token(t *Token) (ok bool, err error) {
	if d.endPending {
		d.endPending = false
		t.set(KindEndElement, d.endName, d.endPos)
		return true, nil
	}
	if d.eof {
		return false, nil
	}
	if !d.started {
		d.started = true
		if ok, err := d.xmlDecl(t); ok || err != nil {
			return ok, err
		}
	}
	for {
		d.fill(1)
		if d.off >= len(d.src) {
			return false, d.finish()
		}
		inContent := len(d.stack) > 0
		if d.src[d.off] != '<' {
			if !inContent && !d.opts.Fragment {
				// Prolog / epilog: only whitespace allowed.
				p := d.pos()
				if !d.skipSpace() {
					return false, d.errf(p, "content outside of root element")
				}
				continue
			}
			err := d.text(t)
			return err == nil, err
		}
		p := d.pos()
		// One byte after '<' picks the construct; only "<!" needs the
		// longer prefixes.
		switch d.peekByte(1) {
		case '!':
			switch {
			case d.hasPrefix("<!--"):
				err := d.comment(t, p)
				return err == nil, err
			case d.hasPrefix("<![CDATA["):
				if !inContent && !d.opts.Fragment {
					return false, d.errf(p, "CDATA section outside of root element")
				}
				err := d.cdata(t, p)
				return err == nil, err
			case d.hasPrefix("<!DOCTYPE"):
				if inContent || d.seenRoot {
					return false, d.errf(p, "DOCTYPE not allowed here")
				}
				err := d.doctype(t, p)
				return err == nil, err
			default:
				return false, d.errf(p, "unexpected markup declaration")
			}
		case '?':
			err := d.procInst(t, p)
			return err == nil, err
		case '/':
			err := d.endTag(t, p)
			return err == nil, err
		default:
			if d.seenRoot && !inContent && !d.opts.Fragment {
				return false, d.errf(p, "document has more than one root element")
			}
			err := d.startTag(t, p)
			return err == nil, err
		}
	}
}

// finish validates end-of-input conditions.
func (d *Decoder) finish() error {
	d.eof = true
	if d.readErr != nil {
		return d.readErr
	}
	if len(d.stack) > 0 {
		top := &d.stack[len(d.stack)-1]
		return d.errf(d.pos(), "unexpected end of input: element <%s> opened at %d:%d is not closed", d.rawName(top), top.line, top.col)
	}
	if !d.seenRoot && !d.opts.Fragment {
		return d.errf(d.pos(), "document has no root element")
	}
	return nil
}

// xmlDecl parses an optional leading XML declaration into t; ok reports
// whether there was one.
func (d *Decoder) xmlDecl(t *Token) (bool, error) {
	if !d.hasPrefix("<?xml") {
		return false, nil
	}
	// Must be followed by whitespace to be the declaration and not a PI
	// with a target beginning with "xml".
	b := d.peekByte(5)
	if b != ' ' && b != '\t' && b != '\r' && b != '\n' {
		return false, nil
	}
	p := d.pos()
	d.skip("<?xml")
	data, err := d.untilString("?>", "XML declaration")
	if err != nil {
		return false, err
	}
	d.seenDecl = true
	attrs, err := ParsePseudoAttrs(data)
	if err != nil {
		return false, d.errf(p, "malformed XML declaration: %v", err)
	}
	version, ok := attrs["version"]
	if !ok || (version != "1.0" && version != "1.1") {
		return false, d.errf(p, "XML declaration must specify version 1.0 or 1.1")
	}
	if enc, ok := attrs["encoding"]; ok {
		lower := strings.ToLower(enc)
		if lower != "utf-8" && lower != "utf8" && lower != "us-ascii" && lower != "ascii" {
			return false, d.errf(p, "unsupported encoding %q (only UTF-8 input is supported)", enc)
		}
	}
	t.set(KindXMLDecl, Name{}, p)
	t.SetData(strings.TrimSpace(data))
	return true, nil
}

// ParsePseudoAttrs parses the name="value" pairs of XML and text
// declarations (e.g. `version="1.0" encoding="UTF-8"`).
func ParsePseudoAttrs(s string) (map[string]string, error) {
	out := map[string]string{}
	rest := strings.TrimSpace(s)
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, fmt.Errorf("expected '=' in %q", rest)
		}
		name := strings.TrimSpace(rest[:eq])
		if !IsName(name) {
			return nil, fmt.Errorf("bad pseudo-attribute name %q", name)
		}
		rest = strings.TrimSpace(rest[eq+1:])
		if rest == "" || (rest[0] != '"' && rest[0] != '\'') {
			return nil, fmt.Errorf("pseudo-attribute %s must be quoted", name)
		}
		q := rest[0]
		end := strings.IndexByte(rest[1:], q)
		if end < 0 {
			return nil, fmt.Errorf("unterminated value for %s", name)
		}
		out[name] = rest[1 : 1+end]
		rest = strings.TrimSpace(rest[1+end+1:])
	}
	return out, nil
}

// untilString consumes input up to and including the terminator, returning
// the text before it.
func (d *Decoder) untilString(term, what string) (string, error) {
	b, err := d.untilBytes(term, what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// untilBytes consumes input up to and including the terminator, returning
// a zero-copy view of the text before it (valid until the next token is
// pulled). In reader mode it refills the window until the terminator
// appears, so no index into src is held across a compaction. Positions
// advance in one bulk step rather than per rune.
func (d *Decoder) untilBytes(term, what string) ([]byte, error) {
	start := d.off
	searchFrom := d.off
	for {
		idx := bytes.Index(d.src[searchFrom:], []byte(term))
		if idx >= 0 {
			end := searchFrom + idx
			if d.noBulk {
				for d.off < end+len(term) {
					d.next()
				}
			} else {
				d.advancePos(end + len(term) - d.off)
			}
			return d.src[start:end], nil
		}
		if d.srcDone {
			return nil, d.errf(d.pos(), "unterminated %s", what)
		}
		// Resume the search just before the unscanned tail so a
		// terminator split across reads is still found.
		if from := len(d.src) - len(term) + 1; from > searchFrom {
			searchFrom = from
		}
		d.readMore()
	}
}

// comment parses <!-- ... --> into t.
func (d *Decoder) comment(t *Token, p Pos) error {
	d.skip("<!--")
	body, err := d.untilString("-->", "comment")
	if err != nil {
		return err
	}
	if strings.Contains(body, "--") {
		return d.errf(p, "'--' is not permitted inside comments")
	}
	if strings.HasSuffix(body, "-") {
		return d.errf(p, "comment must not end with '--->'")
	}
	if err := checkChars(body); err != nil {
		return d.errf(p, "illegal character in comment: %v", err)
	}
	t.set(KindComment, Name{}, p)
	t.SetData(body)
	return nil
}

// cdata parses <![CDATA[ ... ]]>. The body is filled in as a zero-copy
// view of the input window; character legality is checked over the whole
// run with the SWAR sweep instead of per rune.
func (d *Decoder) cdata(t *Token, p Pos) error {
	d.skip("<![CDATA[")
	body, err := d.untilBytes("]]>", "CDATA section")
	if err != nil {
		return err
	}
	if cerr := checkCharBytes(body); cerr != nil {
		return d.errf(p, "illegal character in CDATA section: %v", cerr)
	}
	d.byteToken(t, KindCData, body, p)
	return nil
}

// procInst parses <?target data?> into t.
func (d *Decoder) procInst(t *Token, p Pos) error {
	d.skip("<?")
	target, err := d.name("processing instruction target")
	if err != nil {
		return err
	}
	if strings.EqualFold(target, "xml") {
		return d.errf(p, "processing instruction target %q is reserved", target)
	}
	var data string
	if IsSpace(d.peek()) {
		d.skipSpace()
		data, err = d.untilString("?>", "processing instruction")
		if err != nil {
			return err
		}
	} else {
		if !d.hasPrefix("?>") {
			return d.errf(d.pos(), "expected '?>' or whitespace after PI target")
		}
		d.skip("?>")
	}
	if err := checkChars(data); err != nil {
		return d.errf(p, "illegal character in processing instruction: %v", err)
	}
	t.set(KindProcInst, Name{}, p)
	t.Target = target
	t.SetData(data)
	return nil
}

// name scans an XML Name and returns it interned.
func (d *Decoder) name(what string) (string, error) {
	b, err := d.scanName(what)
	if err != nil {
		return "", err
	}
	return d.internBytes(b), nil
}

// scanName scans an XML Name and returns a view of it in the window. ASCII
// name bytes are swept directly off the window in one run per iteration —
// names never contain newlines, so the column advances by the run length
// without per-byte decoder-field updates; non-ASCII runes take the
// rune-decoding path.
func (d *Decoder) scanName(what string) ([]byte, error) {
	p := d.pos()
	start := d.off
	r := d.peek()
	if r < 0 || !IsNameStartChar(r) {
		return nil, d.errf(p, "expected %s", what)
	}
	d.next()
	for {
		if d.off >= len(d.src) {
			d.fill(1)
			if d.off >= len(d.src) {
				break
			}
		}
		if c := d.src[d.off]; c < 0x80 {
			if !asciiName[c] {
				break
			}
			if d.noBulk {
				d.off++
				d.col++
				continue
			}
			i := asciiNameRun(d.src, d.off+1)
			d.col += i - d.off
			d.off = i
			continue
		}
		r := d.peek()
		if r < 0 || !IsNameChar(r) {
			break
		}
		d.next()
	}
	return d.src[start:d.off], nil
}

// checkChars verifies every rune in s is a legal XML character.
func checkChars(s string) error {
	for _, r := range s {
		if !IsChar(r) {
			return fmt.Errorf("U+%04X", r)
		}
	}
	return nil
}

// text parses character data up to the next '<' into t.
//
// One loop walks the window: plain ASCII is admitted eight bytes a word,
// and the loop stops only at bytes it must look at. It counts lines and
// columns itself, decodes valid multi-byte runes in place and rewrites
// the five predefined references by byte compare. A token that needed no
// rewriting is a zero-copy view of the input; one that did is a view of
// d.buf, which takes the runs between rewrites. Whatever else the loop
// meets (other references, CR, controls, invalid UTF-8, U+FFFE/U+FFFF)
// hands the rest of the token to the per-rune assembler, seeded with what
// the loop has read.
func (d *Decoder) text(t *Token) error {
	p := d.pos()
	if d.noBulk {
		d.buf = d.buf[:0]
		return d.textSlow(t, p)
	}
	src, start := d.src, d.off
	i, line := start, d.line
	// Bytes from mark to i are ASCII and hold no LF: byte i is at column
	// col + i - mark.
	col, mark := d.col, start
	// Once the token needs rewriting, d.buf holds it up to flushed.
	flushed, rewrite := start, false
	for {
		for i+8 <= len(src) {
			if m := textStopMask(binary.LittleEndian.Uint64(src[i:])); m != 0 {
				i += bits.TrailingZeros64(m) >> 3
				break
			}
			i += 8
		}
		if i >= len(src) {
			if d.srcDone {
				break
			}
			d.readMore()
			src = d.src
			continue
		}
		c := src[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '<' && c != '&' && c != ']' || c == '\t' {
			i++
			continue
		}
		if c == '<' {
			break
		}
		switch c {
		case '\n':
			i++
			line, col, mark = line+1, 1, i
			continue
		case ']':
			if len(src)-i < 3 && !d.srcDone {
				d.readMore()
				src = d.src
				continue
			}
			if len(src)-i >= 3 && src[i+1] == ']' && src[i+2] == '>' {
				d.off, d.line, d.col = i, line, col+i-mark
				return d.errf(d.pos(), "']]>' is not permitted in character data")
			}
			i++
			continue
		case '&':
			if r, n := predefRef(src[i:]); n > 0 {
				if !rewrite {
					d.buf, rewrite = d.buf[:0], true
				}
				d.buf = append(append(d.buf, src[flushed:i]...), r)
				i += n
				flushed = i
				continue
			}
			if len(src)-i < len("&quot;") && !d.srcDone {
				d.readMore()
				src = d.src
				continue
			}
		default:
			if c >= utf8.RuneSelf {
				r, size := utf8.DecodeRune(src[i:])
				if size == 1 && !utf8.FullRune(src[i:]) && !d.srcDone {
					d.readMore()
					src = d.src
					continue
				}
				if size > 1 && r != 0xFFFE && r != 0xFFFF {
					col += i - mark + 1
					i += size
					mark = i
					continue
				}
			}
		}
		// Anything else: the per-rune assembler takes over at byte i.
		d.off, d.line, d.col = i, line, col+i-mark
		if !rewrite {
			d.buf = d.buf[:0]
		}
		d.buf = append(d.buf, src[flushed:i]...)
		return d.textSlow(t, p)
	}
	d.off, d.line, d.col = i, line, col+i-mark
	if rewrite {
		d.buf = append(d.buf, src[flushed:i]...)
		d.byteToken(t, KindText, d.buf, p)
		return nil
	}
	d.byteToken(t, KindText, src[start:i], p)
	return nil
}

// predefRef matches one of the five predefined entity references at the
// start of b, returning the character it stands for and its length, or a
// zero length. It is the byte-compare form of predefEntities, which the
// reference scanner's resolveEntity uses: the two list the same five.
func predefRef(b []byte) (byte, int) {
	if len(b) < 4 {
		return 0, 0
	}
	switch b[1] {
	case 'l':
		if b[2] == 't' && b[3] == ';' {
			return '<', 4
		}
	case 'g':
		if b[2] == 't' && b[3] == ';' {
			return '>', 4
		}
	case 'a':
		if len(b) >= 5 && string(b[2:5]) == "mp;" {
			return '&', 5
		}
		if len(b) >= 6 && string(b[2:6]) == "pos;" {
			return '\'', 6
		}
	case 'q':
		if len(b) >= 6 && string(b[2:6]) == "uot;" {
			return '"', 6
		}
	}
	return 0, 0
}

// textSlow assembles character data rune by rune into d.buf, expanding
// references, normalizing CR/CRLF to LF and replacing invalid UTF-8 with
// U+FFFD. It remains the reference scanner: with noBulk set it touches
// one rune at a time, byte-exact against the SWAR path.
func (d *Decoder) textSlow(t *Token, p Pos) error {
	for {
		if !d.noBulk {
			// Bulk-copy a run of plain bytes before falling back to
			// rune-at-a-time scanning for whatever stopped the run.
			if n := scanPlainText(d.src[d.off:]); n > 0 {
				d.buf = append(d.buf, d.src[d.off:d.off+n]...)
				d.advancePos(n)
			}
		}
		r := d.peek()
		if r < 0 || r == '<' {
			break
		}
		if r == '&' {
			s, err := d.reference(false)
			if err != nil {
				return err
			}
			d.buf = append(d.buf, s...)
			continue
		}
		if r == ']' && d.hasPrefix("]]>") {
			return d.errf(d.pos(), "']]>' is not permitted in character data")
		}
		if !IsChar(r) {
			return d.errf(d.pos(), "illegal character U+%04X in character data", r)
		}
		if r == '\r' {
			// End-of-line normalization: CR and CRLF become LF.
			d.next()
			if d.peek() == '\n' {
				d.next()
			}
			d.buf = append(d.buf, '\n')
			continue
		}
		d.buf = utf8.AppendRune(d.buf, r)
		d.next()
	}
	d.byteToken(t, KindText, d.buf, p)
	return nil
}

// reference parses &name;, &#n; or &#xn;. inAttr selects the stricter
// attribute-value context.
func (d *Decoder) reference(inAttr bool) (string, error) {
	p := d.pos()
	d.next() // consume '&'
	if d.peek() == '#' {
		d.next()
		hex := false
		if d.peek() == 'x' {
			hex = true
			d.next()
		}
		var n rune
		digits := 0
		for {
			r := d.peek()
			var v rune = -1
			switch {
			case r >= '0' && r <= '9':
				v = r - '0'
			case hex && r >= 'a' && r <= 'f':
				v = r - 'a' + 10
			case hex && r >= 'A' && r <= 'F':
				v = r - 'A' + 10
			}
			if v < 0 {
				break
			}
			base := rune(10)
			if hex {
				base = 16
			}
			n = n*base + v
			if n > 0x10FFFF {
				return "", d.errf(p, "character reference out of range")
			}
			digits++
			d.next()
		}
		if digits == 0 || d.peek() != ';' {
			return "", d.errf(p, "malformed character reference")
		}
		d.next()
		if !IsChar(n) {
			return "", d.errf(p, "character reference to illegal character U+%04X", n)
		}
		return string(n), nil
	}
	name, err := d.name("entity name")
	if err != nil {
		return "", d.errf(p, "malformed entity reference")
	}
	if d.peek() != ';' {
		return "", d.errf(p, "entity reference %q missing ';'", name)
	}
	d.next()
	return d.resolveEntity(p, name, inAttr)
}

// predefEntities are the five predefined XML entities. The text loop
// matches the same five by byte compare (predefRef).
var predefEntities = map[string]string{
	"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": `"`,
}

// resolveEntity expands a general entity reference, recursively expanding
// references inside internal entity replacement text.
func (d *Decoder) resolveEntity(p Pos, name string, inAttr bool) (string, error) {
	if v, ok := predefEntities[name]; ok {
		return v, nil
	}
	repl, ok := d.internalEntities[name]
	if !ok {
		repl, ok = d.opts.Entities[name]
	}
	if !ok {
		return "", d.errf(p, "reference to undeclared entity %q", name)
	}
	if d.entityDepth >= 16 {
		return "", d.errf(p, "entity expansion too deep (recursive entity %q?)", name)
	}
	if strings.ContainsAny(repl, "<") {
		return "", d.errf(p, "entity %q contains markup, which this parser does not support", name)
	}
	d.entityDepth++
	defer func() { d.entityDepth-- }()
	return d.expandEntityText(p, repl, inAttr, name)
}

// expandEntityText resolves references inside entity replacement text.
func (d *Decoder) expandEntityText(p Pos, s string, inAttr bool, via string) (string, error) {
	if !strings.Contains(s, "&") {
		return s, nil
	}
	sub := NewDecoder([]byte(s), &Options{Namespaces: false, Fragment: true})
	defer sub.Release()
	sub.internalEntities = d.internalEntities
	sub.opts.Entities = d.opts.Entities
	sub.entityDepth = d.entityDepth
	var sb strings.Builder
	for sub.off < len(sub.src) {
		r := sub.peek()
		if r == '&' {
			v, err := sub.reference(inAttr)
			if err != nil {
				return "", d.errf(p, "in expansion of entity %q: %v", via, err)
			}
			sb.WriteString(v)
			continue
		}
		sb.WriteRune(r)
		sub.next()
	}
	return sb.String(), nil
}

// startTag parses <name attr="v" ...> or <name .../> into t.
func (d *Decoder) startTag(t *Token, p Pos) error {
	if !d.noBulk {
		if ok, err := d.startTagWindow(t, p); ok {
			return err
		}
	}
	d.skip("<")
	nameCol := d.col
	e, raw, err := d.qname("element name")
	if err != nil {
		return err
	}
	nameCols := d.col - nameCol
	// Attributes accumulate in the decoder's scratch slice; the emitted
	// token aliases it, so it is only valid until the next Token call
	// (Detach copies it for retained tokens).
	d.attrs, d.attrNames = d.attrs[:0], d.attrNames[:0]
	selfClosing := false
	for {
		had := d.skipSpace()
		r := d.peek()
		switch {
		case r == '>':
			d.next()
		case r == '/':
			d.next()
			if d.peek() != '>' {
				return d.errf(d.pos(), "expected '>' after '/' in tag <%s>", raw)
			}
			d.next()
			selfClosing = true
		case r < 0:
			return d.errf(p, "unterminated start tag <%s>", raw)
		default:
			if !had {
				return d.errf(d.pos(), "expected whitespace before attribute in <%s>", raw)
			}
			d.attrs = append(d.attrs, Attr{})
			ae, err := d.attribute(&d.attrs[len(d.attrs)-1])
			if err != nil {
				return err
			}
			d.attrNames = append(d.attrNames, ae)
			continue
		}
		break
	}
	return d.openTag(t, p, e, raw, nameCols, selfClosing)
}

// startTagWindow reads the start tag at the read position in one pass over
// the window when the tag has the ordinary shape: ASCII names, attributes
// written name="value" (or name='value') with values of plain bytes,
// spaces or tabs between them, no line feed, and its '>' or '/>' already
// buffered. The tag then holds no multi-byte rune and no line break, so
// every column is a byte count. For any other tag it reports false with
// the read position untouched, and startTag reads the tag rune by rune.
// Only names and values that end inside the window are memoized or
// interned, so a tag cut by a reader's window edge leaves nothing behind.
func (d *Decoder) startTagWindow(t *Token, p Pos) (bool, error) {
	src, off := d.src, d.off
	i := asciiNameEnd(src, off+1)
	if i == off+1 || i >= len(src) {
		return false, nil
	}
	name := src[off+1 : i]
	d.attrs, d.attrNames = d.attrs[:0], d.attrNames[:0]
	selfClosing := false
	for {
		if i >= len(src) {
			return false, nil
		}
		c := src[i]
		if c == '>' {
			i++
			break
		}
		if c == '/' {
			if i+1 < len(src) && src[i+1] == '>' {
				i += 2
				selfClosing = true
				break
			}
			return false, nil
		}
		if c != ' ' && c != '\t' {
			return false, nil
		}
		for i++; i < len(src) && (src[i] == ' ' || src[i] == '\t'); i++ {
		}
		if i >= len(src) || src[i] == '>' || src[i] == '/' {
			continue
		}
		// name="value"
		ns := i
		i = asciiNameEnd(src, ns)
		if i == ns || i+1 >= len(src) || src[i] != '=' {
			return false, nil
		}
		q := src[i+1]
		if q != '"' && q != '\'' {
			return false, nil
		}
		vs := i + 2
		i = vs + scanPlainAttr(src[vs:])
		if i >= len(src) || src[i] != q {
			return false, nil
		}
		ae, raw := d.memoRaw(src[ns : vs-2])
		d.attrs = append(d.attrs, Attr{})
		a := &d.attrs[len(d.attrs)-1]
		a.Name, a.Value = attrName(ae, raw), d.internBytes(src[vs:i])
		a.Pos = Pos{Line: d.line, Col: d.col + ns - off, Offset: d.base + ns}
		d.attrNames = append(d.attrNames, ae)
		i++
	}
	e, raw := d.memoRaw(name)
	d.col += i - off
	d.off = i
	return true, d.openTag(t, p, e, raw, len(name), selfClosing)
}

// asciiNameEnd returns the end of the run of ASCII name bytes at src[i:]
// that starts with a name-start byte, or i when there is none.
func asciiNameEnd(src []byte, i int) int {
	if i >= len(src) || src[i] >= utf8.RuneSelf || !asciiNameStart[src[i]] {
		return i
	}
	return asciiNameRun(src, i+1)
}

// asciiNameRun returns the end of the run of ASCII name bytes at src[i:].
func asciiNameRun(src []byte, i int) int {
	for i < len(src) && src[i] < utf8.RuneSelf && asciiName[src[i]] {
		i++
	}
	return i
}

// openTag finishes a start tag whose name and attributes (in d.attrs and
// d.attrNames) are read: it checks the attributes, resolves the names,
// fills t, and opens the element or, for a self-closing tag, queues its
// end token. e is the name's memo entry (nil when it has none), and
// nameCols the columns the name spans.
func (d *Decoder) openTag(t *Token, p Pos, e *nameEntry, raw string, nameCols int, selfClosing bool) error {
	var attrs []Attr
	if len(d.attrs) > 0 {
		attrs = d.attrs
	}
	// Literal duplicate check (pre-namespace).
	if j := firstDuplicate(attrs, literalKey); j >= 0 {
		return d.errf(attrs[j].Pos, "duplicate attribute %q in <%s>", attrs[j].Name.Qualified(), raw)
	}
	// The name is written in place, here and in closeTop and push: a Name
	// or openElem built on the stack and copied out is reloaded with wider
	// loads than the stores that built it, which stalls store forwarding.
	t.set(KindStartElement, Name{}, p)
	t.Name.Local = raw
	nsMark := d.ns.Mark()
	bumped := false
	if d.opts.Namespaces {
		var err error
		if bumped, err = d.applyNamespaces(t, e, attrs); err != nil {
			return err
		}
	}
	d.seenRoot = true
	t.Attrs, t.SelfClosing = attrs, selfClosing
	if selfClosing {
		d.popScope(nsMark, bumped)
		d.endPending, d.endName, d.endPos = true, t.Name, p
	} else {
		d.push(e, &t.Name, raw, nameCols, p, nsMark, bumped)
	}
	return nil
}

// push opens the element of a start tag named raw, with memo entry e (nil
// when it has none) and resolved name, at p.
func (d *Decoder) push(e *nameEntry, name *Name, raw string, nameCols int, p Pos, nsMark int, bumped bool) {
	if len(d.stack) == cap(d.stack) {
		// Double, where append would grow a long stack by a quarter.
		d.stack = append(make([]openElem, 0, 2*len(d.stack)+8), d.stack...)
	}
	d.stack = d.stack[:len(d.stack)+1]
	o := &d.stack[len(d.stack)-1]
	o.nameCols, o.line, o.col, o.nsMark, o.bumped = clamp32(nameCols), clamp32(p.Line), clamp32(p.Col), int32(nsMark), bumped
	if e != nil {
		o.name = e.idx
	} else {
		o.name = ^int32(len(d.unmemo))
		d.unmemo = append(d.unmemo, openName{name: *name, raw: raw})
	}
}

// rawName returns the open element's name as its start tag wrote it.
func (d *Decoder) rawName(o *openElem) string {
	if o.name < 0 {
		return d.unmemo[^o.name].raw
	}
	return d.memo[o.name].raw
}

// attrKey identifies an attribute for a duplicate check.
type attrKey struct{ a, b string }

// literalKey is the pre-namespace identity {Prefix, Local}.
func literalKey(a *Attr) (attrKey, bool) { return attrKey{a.Name.Prefix, a.Name.Local}, true }

// resolvedKey is the post-resolution identity {Space, Local}; namespace
// declarations and unqualified attributes are exempt (the literal check
// already covers them).
func resolvedKey(a *Attr) (attrKey, bool) {
	return attrKey{a.Name.Space, a.Name.Local}, !a.IsNamespaceDecl && a.Name.Space != ""
}

// DuplicateAttr returns the index of the attribute a start tag's literal
// duplicate check (same prefix:local) rejects, or -1. Writers that build
// start-tag tokens without parsing them use it to know whether the tag
// would parse.
func DuplicateAttr(attrs []Attr) int { return firstDuplicate(attrs, literalKey) }

// smallTag is the attribute count up to which duplicate checks use the
// allocation-free nested loop; wider tags use a map. Measured (EXPERIMENTS
// E18): the loop is 2.6–8× faster up to three attributes, the common case,
// and still 1.4× faster at 16; the map is 1.5× faster at 24.
const smallTag = 16

// firstDuplicate returns the index of the attribute a duplicate check
// reports — the first later repeat of the earliest attribute that has
// one — or -1. key gives each attribute's identity, or false to exempt it.
func firstDuplicate(attrs []Attr, key func(*Attr) (attrKey, bool)) int {
	if len(attrs) <= smallTag {
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
	// The earliest attribute with a repeat is always a first occurrence,
	// and the first repeat seen for it is its earliest: keep the report
	// whose first occurrence comes first.
	first := make(map[attrKey]int, len(attrs))
	bestI, bestJ := len(attrs), -1
	for j := range attrs {
		k, ok := key(&attrs[j])
		if !ok {
			continue
		}
		if i, seen := first[k]; !seen {
			first[k] = j
		} else if i < bestI {
			bestI, bestJ = i, j
		}
	}
	return bestJ
}

// attribute parses name="value" into the zero Attr a and returns the
// name's memo entry (nil when it has none).
func (d *Decoder) attribute(a *Attr) (*nameEntry, error) {
	p := d.pos()
	e, raw, err := d.qname("attribute name")
	if err != nil {
		return nil, err
	}
	d.skipSpace()
	if d.peek() != '=' {
		return nil, d.errf(d.pos(), "expected '=' after attribute name %q", raw)
	}
	d.next()
	d.skipSpace()
	q := d.peek()
	if q != '"' && q != '\'' {
		return nil, d.errf(d.pos(), "attribute value for %q must be quoted", raw)
	}
	d.next()
	d.buf = d.buf[:0]
	for {
		if !d.noBulk {
			// SWAR-sweep plain ASCII value bytes into the buffer (both
			// quote kinds stop the run; the non-delimiting one is
			// appended by the per-rune path). Values still materialize
			// to interned strings — they feed maps and comparisons.
			if d.off >= len(d.src) && !d.srcDone {
				d.fill(1)
			}
			if n := scanPlainAttr(d.src[d.off:]); n > 0 {
				d.buf = append(d.buf, d.src[d.off:d.off+n]...)
				d.col += n
				d.off += n
				continue
			}
			if d.off < len(d.src) && d.src[d.off] >= 0x80 {
				seg := d.nonASCIIRun()
				if validXMLRun(seg) {
					d.buf = append(d.buf, seg...)
					d.advancePos(len(seg))
					continue
				}
				// Invalid UTF-8 or an encoded non-character: consume the
				// whole run per-rune (U+FFFD replacement, exact error
				// positions) so the run is never re-validated.
				end := d.off + len(seg)
				for d.off < end {
					r := d.peek()
					if !IsChar(r) {
						return nil, d.errf(d.pos(), "illegal character U+%04X in attribute value", r)
					}
					d.buf = utf8.AppendRune(d.buf, r)
					d.next()
				}
				continue
			}
		}
		r := d.peek()
		switch {
		case r < 0:
			return nil, d.errf(p, "unterminated attribute value for %q", raw)
		case r == q:
			d.next()
			a.Name, a.Value, a.Pos = attrName(e, raw), d.internBytes(d.buf), p
			return e, nil
		case r == '<':
			return nil, d.errf(d.pos(), "'<' is not permitted in attribute values")
		case r == '&':
			s, err := d.reference(true)
			if err != nil {
				return nil, err
			}
			d.buf = append(d.buf, s...)
		case r == '\t' || r == '\n':
			// Attribute-value normalization: whitespace becomes space.
			d.buf = append(d.buf, ' ')
			d.next()
		case r == '\r':
			d.next()
			if d.peek() == '\n' {
				d.next()
			}
			d.buf = append(d.buf, ' ')
		default:
			if !IsChar(r) {
				return nil, d.errf(d.pos(), "illegal character U+%04X in attribute value", r)
			}
			d.buf = utf8.AppendRune(d.buf, r)
			d.next()
		}
	}
}

// attrName is the unresolved name of an attribute named raw, with memo
// entry e (nil when it has none).
func attrName(e *nameEntry, raw string) Name {
	if e != nil {
		return Name{Prefix: e.name.Prefix, Local: e.name.Local}
	}
	return splitRawName(raw)
}

// splitRawName splits prefix:local.
func splitRawName(raw string) Name {
	if i := strings.IndexByte(raw, ':'); i >= 0 {
		return Name{Prefix: raw[:i], Local: raw[i+1:]}
	}
	return Name{Local: raw}
}

// lookupNS resolves a prefix against the innermost binding in scope.
func (d *Decoder) lookupNS(prefix string) (string, bool) {
	if prefix == "xml" {
		return XMLNamespace, true // bound everywhere; rebinding is rejected
	}
	uri, ok := d.ns.Lookup(prefix)
	if uri == "" && prefix == "" {
		return "", false // default namespace undeclared
	}
	return uri, ok
}

// endTag parses </name> into t. When the tag closes the open element
// exactly as its start tag wrote the name, the input bytes are compared
// with that name and its resolved Name is reused; any other end tag takes
// the full scan, which reports the mismatch.
func (d *Decoder) endTag(t *Token, p Pos) error {
	d.skip("</")
	if !d.noBulk && len(d.stack) > 0 {
		top := &d.stack[len(d.stack)-1]
		raw := d.rawName(top)
		n := len(raw)
		d.fill(n + 1)
		if rest := d.src[d.off:]; len(rest) > n && rest[n] == '>' && string(rest[:n]) == raw {
			d.off += n + 1
			d.col += int(top.nameCols) + 1
			d.closeTop(t, p)
			return nil
		}
	}
	raw, err := d.name("element name in end tag")
	if err != nil {
		return err
	}
	d.skipSpace()
	if d.peek() != '>' {
		return d.errf(d.pos(), "expected '>' to close end tag </%s>", raw)
	}
	d.next()
	if len(d.stack) == 0 {
		return d.errf(p, "unexpected end tag </%s>", raw)
	}
	if top := &d.stack[len(d.stack)-1]; d.rawName(top) != raw {
		return d.errf(p, "end tag </%s> does not match start tag <%s> opened at %d:%d", raw, d.rawName(top), top.line, top.col)
	}
	d.closeTop(t, p)
	return nil
}

// closeTop pops the innermost open element and fills t with its end token.
// A memoized name is resolved again before the element's declarations are
// popped: the scope is then the one its start tag was resolved in, so the
// end token carries the same name.
func (d *Decoder) closeTop(t *Token, p Pos) {
	top := &d.stack[len(d.stack)-1]
	if top.name < 0 {
		u := &d.unmemo[len(d.unmemo)-1]
		t.set(KindEndElement, u.name, p)
		*u = openName{}
		d.unmemo = d.unmemo[:len(d.unmemo)-1]
	} else if e := d.memo[top.name]; d.opts.Namespaces {
		d.resolve(e)
		t.set(KindEndElement, e.name, p)
	} else {
		t.set(KindEndElement, Name{}, p)
		t.Name.Local = e.raw
	}
	d.popScope(int(top.nsMark), top.bumped)
	d.stack = d.stack[:len(d.stack)-1]
}

// doctype parses <!DOCTYPE name externalID? [internal subset]? > into t.
// The internal subset's raw text is returned in Token.Data; the external
// identifier (if any) in Token.Target. The internal subset's general
// entity declarations are registered for reference expansion; a subset
// ParseSubset rejects is a well-formedness error.
func (d *Decoder) doctype(t *Token, p Pos) error {
	d.skip("<!DOCTYPE")
	if !d.skipSpace() {
		return d.errf(p, "expected whitespace after <!DOCTYPE")
	}
	name, err := d.name("doctype name")
	if err != nil {
		return err
	}
	d.skipSpace()
	extStart := d.off
	// External ID: SYSTEM literal | PUBLIC literal literal.
	if d.hasPrefix("SYSTEM") || d.hasPrefix("PUBLIC") {
		isPublic := d.hasPrefix("PUBLIC")
		d.skip("SYSTEM") // both keywords are 6 bytes
		if !d.skipSpace() {
			return d.errf(d.pos(), "expected whitespace after external ID keyword")
		}
		if _, err := d.quotedLiteral(); err != nil {
			return err
		}
		if isPublic {
			if !d.skipSpace() {
				return d.errf(d.pos(), "expected whitespace between public and system literals")
			}
			if _, err := d.quotedLiteral(); err != nil {
				return err
			}
		}
	}
	extID := strings.TrimSpace(string(d.src[extStart:d.off]))
	d.skipSpace()
	subset := ""
	if d.peek() == '[' {
		d.next()
		subset, err = d.internalSubset(p)
		if err != nil {
			return err
		}
	}
	d.skipSpace()
	if d.peek() != '>' {
		return d.errf(d.pos(), "expected '>' to close DOCTYPE")
	}
	d.next()
	decls, err := ParseSubset(subset)
	if err != nil {
		return d.errf(p, "%v", err)
	}
	for _, decl := range decls {
		if decl.Kind != "ENTITY" || decl.Parameter || decl.External {
			continue
		}
		if d.internalEntities == nil {
			d.internalEntities = map[string]string{}
		}
		if _, dup := d.internalEntities[decl.Name]; !dup {
			d.internalEntities[decl.Name] = decl.Value // the first declaration binds
		}
	}
	t.set(KindDoctype, Name{Local: name}, p)
	t.Target = extID
	t.SetData(subset)
	return nil
}

// quotedLiteral parses a quoted literal ("..." or '...').
func (d *Decoder) quotedLiteral() (string, error) {
	q := d.peek()
	if q != '"' && q != '\'' {
		return "", d.errf(d.pos(), "expected quoted literal")
	}
	d.next()
	start := d.off
	for {
		r := d.peek()
		if r < 0 {
			return "", d.errf(d.pos(), "unterminated literal")
		}
		if r == q {
			s := string(d.src[start:d.off])
			d.next()
			return s, nil
		}
		d.next()
	}
}

// internalSubset consumes the internal DTD subset up to the closing ']'
// and returns its raw text for ParseSubset. It splits the subset as
// ParseSubset does: comments and processing instructions between
// declarations, and declarations whose quoted literals may hold a ']' or
// a '>'.
func (d *Decoder) internalSubset(p Pos) (string, error) {
	start := d.off
	inDecl := false
	for {
		r := d.peek()
		switch {
		case r < 0:
			return "", d.errf(p, "unterminated internal DTD subset")
		case r == ']' && !inDecl:
			s := string(d.src[start:d.off])
			d.next()
			return s, nil
		case inDecl && (r == '"' || r == '\''):
			if _, err := d.quotedLiteral(); err != nil {
				return "", err
			}
		case !inDecl && (d.hasPrefix("<!--") || d.hasPrefix("<?")):
			open, term, what := "<!--", "-->", "comment"
			if d.peekByte(1) == '?' {
				open, term, what = "<?", "?>", "processing instruction"
			}
			d.skip(open)
			if _, err := d.untilBytes(term, what); err != nil {
				return "", err
			}
		default:
			inDecl = r == '<' || inDecl && r != '>'
			d.next()
		}
	}
}
