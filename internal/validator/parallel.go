package validator

// Intra-document parallel validation.
//
// A multi-MB document is dominated by the subtree walks under its
// depth-1 children, and those walks are independent except for three
// document-global concerns: the violation list (ordered), the ID map
// (first declaration wins, duplicates cite it) and the IDREF worklist
// (resolved against the whole document). Following the fragment-typing
// argument of Abiteboul et al.'s Distributed XML Design — a subtree can
// be validated against its inferred type in isolation, with only a
// bounded interface joined at the seam — ParallelValidate fans sibling
// subtrees out to a worker pool running the ordinary cached-DFA walk. The
// walk descends sequentially until it reaches a level with enough fan-out
// to feed the pool (ParallelMinFanout siblings — the root's depth-1
// children in a wide document, or e.g. the 30k <item> children of
// <items> in a deep purchase order), splits that level into contiguous
// chunks, and joins the three global concerns at the seams:
//
//   - violations: each subtree's violations are contiguous in document
//     order, so the join is concatenation in child order;
//   - IDs: each sub-run journals its ID events (insertions and local
//     duplicates) in subtree order with the violation index they map to.
//     The join replays the journals in child order against the global
//     map: an insertion colliding with an earlier subtree's ID becomes a
//     duplicate violation spliced in at the journaled index, and local
//     duplicate messages are rewritten to cite the globally first
//     declaration — exactly what the sequential walk would have said;
//   - IDREFs: pending references concatenate in child order and resolve
//     against the joined map, preserving emission order.
//
// One sequential behavior cannot be reproduced piecewise: the walk stops
// descending once the violation cap (maxViolations) is reached, so IDs
// and violations past the cap depend on global order. When the joined
// result reaches the cap, ParallelValidate discards it and reruns the
// plain sequential walk — correctness by construction on the (rare,
// already-pathological) documents that hit the cap.
//
// The verdict is byte-identical to ValidateDocument — same violations,
// same order, same paths, same message text — enforced by the
// differential suite (TestParallelMatchesSequential) and the fuzzer
// (FuzzParallelValidate).

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/contentmodel"
	"repro/internal/dom"
	"repro/internal/xsd"
)

// idEvent is one journaled ID occurrence inside a parallel sub-run.
type idEvent struct {
	id string // whitespace-normalized ID value
	at loc    // location of this occurrence
	// vioIdx is len(run.viols) at event time: where a spliced-in
	// duplicate violation belongs, or where the local duplicate landed.
	vioIdx int
	// dup marks a duplicate within the sub-run (a violation was emitted
	// citing the sub-run's first declaration; the join rewrites it).
	dup bool
}

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
	if workers == 1 {
		return v.ValidateDocument(doc)
	}
	r := &run{v: v, ids: map[string]loc{}, parWorkers: workers}
	r.document(doc)
	if r.full() {
		// The sequential walk stops descending at the violation cap, so
		// everything past it depends on global order; rerun sequentially.
		return v.ValidateDocument(doc)
	}
	return r.result()
}

// ParallelMinFanout is the child count below which a level is walked
// sequentially (with the split deferred to deeper levels): fan-out and
// join overhead only pay for themselves when there are enough sibling
// subtrees to spread. A variable so the seam tests can force tiny splits.
var ParallelMinFanout = 16

// parallelChildren fans one level's already-matched children out to
// workers in contiguous chunks (document order within a chunk, chunks
// joined in order). It reports whether it handled the children; false
// means the caller should fall through to the sequential loop.
func (r *run) parallelChildren(children []*dom.Element, leaves []*contentmodel.Leaf, workers int) bool {
	if len(children) < 2 || r.full() {
		return false
	}
	// A few chunks per worker so an expensive subtree doesn't leave the
	// other workers idle at the end of the level.
	chunk := (len(children) + workers*4 - 1) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	nchunks := (len(children) + chunk - 1) / chunk
	if workers > nchunks {
		workers = nchunks
	}
	subs := make([]*run, nchunks)
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
				// Sub-runs share the anchor: a location names its element,
				// so paths do not depend on how the level was split. The
				// bindings above the level stay in r's scope.
				sub := &run{v: r.v, ids: map[string]loc{}, journaling: true, root: r.root, base: r.base, outer: r.namespace}
				subs[c] = sub
				hi := (c + 1) * chunk
				if hi > len(children) {
					hi = len(children)
				}
				for i := c * chunk; i < hi; i++ {
					if decl, wild, ok := sub.childDecl(children[i], leaves[i]); ok {
						sub.element(children[i], decl, wild)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, sub := range subs {
		r.joinSubRun(sub)
	}
	return true
}

// joinSubRun merges one child sub-run into the parent in document order,
// replaying its ID journal against the global map.
func (r *run) joinSubRun(sub *run) {
	viols := sub.viols
	inserted := 0
	for _, ev := range sub.journal {
		if ev.dup {
			// A duplicate within the subtree cited the subtree's first
			// declaration; the globally first one may be elsewhere.
			if idx := ev.vioIdx + inserted; idx < len(viols) {
				viols[idx] = dupID(viols[idx].at, ev.id, r.ids[ev.id])
			}
			continue
		}
		if first, dup := r.ids[ev.id]; dup {
			// Cross-seam duplicate: sequentially this insertion would
			// have been a violation at exactly this point.
			idx := ev.vioIdx + inserted
			viols = append(viols, violation{})
			copy(viols[idx+1:], viols[idx:])
			viols[idx] = dupID(ev.at, ev.id, first)
			inserted++
		} else {
			r.ids[ev.id] = ev.at
		}
	}
	// Append without the violate() cap: the caller detects cap overflow
	// on the joined total and falls back to the sequential walk.
	r.viols = append(r.viols, viols...)
	r.idrefs = append(r.idrefs, sub.idrefs...)
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
