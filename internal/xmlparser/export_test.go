package xmlparser

// ModeRead is one read of a document in one decoder mode.
type ModeRead struct {
	Mode   string
	Tokens []Token
	Err    error
	// Entities are the general entities the internal subset declared.
	Entities map[string]string
}

// ReadModes reads src in each of the test decoder modes (see modes). The
// tests that also run package dtd, which imports this package, live in
// package xmlparser_test and read documents through it.
func ReadModes(src string) []ModeRead {
	var reads []ModeRead
	for _, m := range modes {
		d := input{src: src, reader: m.reader}.start(new(Decoder))
		toks, err := drain(d)
		reads = append(reads, ModeRead{Mode: m.name, Tokens: toks, Err: err, Entities: d.internalEntities})
	}
	return reads
}
