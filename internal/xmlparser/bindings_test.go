package xmlparser

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBindingsMatchReference drives Bindings through random pushes, pops
// and lookups against a plain list searched from its innermost end, across
// the small scope, the memo and the full index: scopes deep enough to
// leave the small one, prefixes that repeat and shadow, and lookup mixes
// both cheap enough to stay memoized and costly enough to force the index.
func TestBindingsMatchReference(t *testing.T) {
	type pair struct{ prefix, uri string }
	modes := map[string]bool{}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prefixes := 1 + rng.Intn(60)
		depth := 1 + rng.Intn(200)
		lookupsPerStep := rng.Intn(12)
		var b Bindings
		var ref []pair
		var marks []int
		sawMemo, sawFull := false, false
		check := func(step int) {
			for k := 0; k < lookupsPerStep; k++ {
				p := ""
				if n := rng.Intn(prefixes + 1); n > 0 {
					p = fmt.Sprintf("p%d", n)
				}
				wantURI, wantOK := "", false
				for i := len(ref) - 1; i >= 0; i-- {
					if ref[i].prefix == p {
						wantURI, wantOK = ref[i].uri, true
						break
					}
				}
				if uri, ok := b.Lookup(p); uri != wantURI || ok != wantOK {
					t.Fatalf("seed %d step %d: Lookup(%q) = %q, %v; want %q, %v", seed, step, p, uri, ok, wantURI, wantOK)
				}
			}
			sawMemo = sawMemo || (b.index != nil && !b.full)
			sawFull = sawFull || b.full
		}
		for step := 0; step < 2000; step++ {
			if len(marks) < depth && (len(marks) == 0 || rng.Intn(3) > 0) {
				marks = append(marks, b.Mark())
				if b.Mark() != len(ref) {
					t.Fatalf("seed %d step %d: Mark %d, want %d", seed, step, b.Mark(), len(ref))
				}
				for n := rng.Intn(4); n > 0; n-- {
					p := ""
					if k := rng.Intn(prefixes + 1); k > 0 {
						p = fmt.Sprintf("p%d", k)
					}
					uri := fmt.Sprintf("u%d", step)
					b.Push(p, uri)
					ref = append(ref, pair{p, uri})
				}
			} else {
				m := marks[len(marks)-1]
				marks = marks[:len(marks)-1]
				b.Pop(m)
				ref = ref[:m]
			}
			check(step)
		}
		t.Logf("seed %d: %d prefixes, depth %d, %d lookups per step: memo %v, index %v",
			seed, prefixes, depth, lookupsPerStep, sawMemo, sawFull)
		modes[fmt.Sprintf("memo %v, index %v", sawMemo, sawFull)] = true
	}
	for _, m := range []string{"memo false, index false", "memo true, index false", "memo true, index true"} {
		if !modes[m] {
			t.Errorf("no seed ran with %s", m)
		}
	}
}

// TestBindingsChainStaysMemoized checks that a chain declaring a new
// prefix per level, and looking up that prefix, the default namespace and
// one outer prefix, never indexes its whole scope: the memo holds the
// default namespace and the outer prefix, since each level's own prefix is
// found among the innermost bindings.
func TestBindingsChainStaysMemoized(t *testing.T) {
	var b Bindings
	const depth = 10000
	for i := 0; i < depth; i++ {
		p := fmt.Sprintf("p%d", i)
		b.Push(p, "u")
		if _, ok := b.Lookup(p); !ok {
			t.Fatalf("%s not bound", p)
		}
		if _, ok := b.Lookup(""); ok {
			t.Fatal("default namespace bound")
		}
	}
	if uri, ok := b.Lookup("p0"); !ok || uri != "u" {
		t.Fatalf("Lookup(p0) = %q, %v", uri, ok)
	}
	if b.full || len(b.index) != 2 {
		t.Fatalf("full index %v, memo of %d prefixes; want a memo of 2", b.full, len(b.index))
	}
	b.Pop(0)
	if _, ok := b.Lookup("p0"); ok {
		t.Fatal("p0 still bound after Pop(0)")
	}
}
