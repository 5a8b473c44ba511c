package validator

// Intra-document parallel validation.
//
// A multi-MB document is dominated by the subtrees under one wide level,
// and those subtrees are independent except for three document-global
// concerns: the violation list (ordered), the ID map (first declaration
// wins, duplicates cite it) and the IDREF worklist (resolved against the
// whole document). Following the fragment-typing argument of Abiteboul et
// al.'s Distributed XML Design — a subtree can be validated against its
// inferred type in isolation, with only a bounded interface joined at the
// seam — ParallelValidate runs the machine over the parsed tree until it
// opens an element-content frame with at least ParallelMinFanout element
// children (the root's children in a wide document, or e.g. the 30k <item>
// children of <items> in a large purchase order). It matches those
// children against the content model at once, fans contiguous chunks of
// them out to sub-machines that open under the frame's frozen path and
// namespace scope, and joins the three concerns at the seams:
//
//   - violations: each chunk's violations are contiguous in document
//     order, so the join appends them to the frame in chunk order;
//   - IDs: a sub-machine checks duplicates within its chunk only, and
//     leaves a placeholder where it declares an ID new to the chunk. The
//     join replays the placeholders in order against the document-wide
//     map: an ID an earlier chunk (or the document before the level)
//     declared becomes a duplicate violation at exactly that point, any
//     other is inserted; a duplicate within a chunk is rewritten to cite
//     the document's first declaration;
//   - IDREFs: pending references concatenate in chunk order and resolve
//     against the joined map at the end.
//
// Every level that wide splits, except inside a chunk: sub-machines never
// split again. The verdict is byte-identical to ValidateDocument's — same
// violations, same order, same paths, same message text — enforced by the
// differential suite (TestParallelMatchesSequential) and the fuzzer
// (FuzzParallelValidate).

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/xmlparser"
	"repro/internal/xsd"
)

// ParallelValidate validates like ValidateDocument, splitting the work at
// sibling-subtree boundaries across a worker pool (see the package-level
// split discussion above). workers <= 0 selects runtime.GOMAXPROCS(0);
// 1 degenerates to the sequential walk. The result is byte-identical to
// ValidateDocument's.
//
// Parallelism pays for itself on large documents with several depth-1
// children; for small documents the sequential walk is faster (xsdserved
// applies a size threshold for exactly this reason).
func (v *Validator) ParallelValidate(doc *dom.Document, workers int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return v.validateDocument(doc, nil, workers)
}

// ParallelMinFanout is the child count below which a level is walked
// sequentially (with the split deferred to deeper levels): fan-out and
// join overhead only pay for themselves when there are enough sibling
// subtrees to spread. A variable so the seam tests can force tiny splits.
var ParallelMinFanout = 16

// wide reports whether el has enough element children to split.
func wide(el *dom.Element) bool {
	n := 0
	for _, c := range el.ChildNodes() {
		if _, ok := c.(*dom.Element); ok {
			if n++; n >= ParallelMinFanout && n >= 2 {
				return true
			}
		}
	}
	return false
}

// seamMark marks a sub-machine's ID placeholder (seamID).
var seamMark loc

// seamID is the placeholder a sub-machine records where it declares id, new
// to its chunk, at at: the place a duplicate of an earlier chunk's ID
// belongs.
func seamID(at loc, id string) violation { return violation{at: at, msg: id, first: &seamMark} }

// splitChildren validates the element children of el, the split frame f's
// element, on sub-machines: contiguous chunks, a few per worker so an
// expensive subtree does not leave the other workers idle, joined into f
// in document order.
func (sr *streamRun) splitChildren(f *frame, el *dom.Element) {
	kids := make([]*dom.Element, 0, len(f.leaves))
	ns := make([]int, 0, len(f.leaves))
	for _, c := range el.ChildNodes() {
		if e, ok := c.(*dom.Element); ok {
			kids = append(kids, e)
			ns = append(ns, f.childIndex(e.Name()))
		}
	}
	// The chunks' frames hang off f, which they only read: its path is
	// frozen here, and the machine's scope stays put until the join.
	freeze(f)
	workers := sr.par
	chunk := (len(kids) + workers*4 - 1) / (workers * 4)
	nchunks := (len(kids) + chunk - 1) / chunk
	workers = min(workers, nchunks)
	subs := make([]*streamRun, nchunks)
	outer := &sharedScope{ns: &sr.ns}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				sub := &streamRun{v: sr.v, ids: map[string]loc{}, tree: &treeSource{}, outer: outer, journal: true}
				subs[c] = sub
				for i := c * chunk; i < min((c+1)*chunk, len(kids)); i++ {
					sub.child(f, kids[i], f.leaves[i], ns[i])
				}
			}
		}()
	}
	wg.Wait()
	for _, sub := range subs {
		sr.join(f, sub)
	}
}

// sharedScope is the parent machine's scope as the chunks of a split
// level resolve prefixes in it. A lookup may record its answer in the
// scope's memo, so the chunks take turns.
type sharedScope struct {
	mu sync.Mutex
	ns *xmlparser.Bindings
}

func (s *sharedScope) lookup(prefix string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ns.Lookup(prefix)
}

// child validates el, a child of the split frame parent at same-name
// position n that the content model matched to leaf, by replaying its
// subtree.
func (sr *streamRun) child(parent *frame, el *dom.Element, leaf *contentmodel.Leaf, n int) {
	src := sr.tree
	src.reset(el)
	var tok xmlparser.Token
	src.Next(&tok)
	nsMark := sr.declare(&tok)
	sr.openChild(parent, &tok, leaf, n, nsMark)
	for src.Next(&tok) == nil {
		sr.token(&tok)
	}
}

// join merges one chunk's sub-machine into the split frame f, replaying
// its ID placeholders against the document-wide map.
func (sr *streamRun) join(f *frame, sub *streamRun) {
	for _, v := range sub.viols {
		switch {
		case v.first == &seamMark:
			if first, dup := sr.ids[v.msg]; dup {
				f.childViols = append(f.childViols, dupID(v.at, v.msg, first))
			} else {
				sr.ids[v.msg] = v.at
				sr.idJournal = append(sr.idJournal, v.msg)
			}
		case v.first != nil:
			// A duplicate within the chunk cited the chunk's first
			// declaration; the document's first may be earlier.
			f.childViols = append(f.childViols, dupID(v.at, v.msg, sr.ids[v.msg]))
		default:
			f.childViols = append(f.childViols, v)
		}
	}
	sr.idrefs = append(sr.idrefs, sub.idrefs...)
}

// ParallelValidateBytes parses and validates in one step like
// ValidateBytes, using the parallel walk for the validation phase.
func ParallelValidateBytes(schema *xsd.Schema, src []byte, workers int) (*dom.Document, *Result) {
	doc, err := dom.Parse(src)
	if err != nil {
		return nil, &Result{Violations: []Violation{{Path: "/", Msg: err.Error()}}}
	}
	return doc, New(schema, nil).ParallelValidate(doc, workers)
}
