package contentmodel

import (
	"sync"
	"sync/atomic"
)

// Interner assigns dense int32 IDs to Symbols so automaton transitions can
// index arrays instead of comparing namespace/local-name pairs. One Interner
// is shared by every content model compiled from the same schema, so a
// symbol has the same ID in all of them.
//
// Lookups are lock-free: the symbol table is an immutable map republished
// (copy-on-write) under a mutex on each insertion. Interning happens at
// compile time, lookups at validation time, so the write path is cold.
type Interner struct {
	mu sync.Mutex
	m  atomic.Value // map[Symbol]int32, copy-on-write
}

// NewInterner returns an empty interning table.
func NewInterner() *Interner {
	t := &Interner{}
	t.m.Store(map[Symbol]int32{})
	return t
}

// Lookup returns the ID previously assigned to s, if any. It never
// allocates and is safe for concurrent use with Intern.
func (t *Interner) Lookup(s Symbol) (int32, bool) {
	id, ok := t.m.Load().(map[Symbol]int32)[s]
	return id, ok
}

// NameID returns the ID previously assigned to {space, local}, if any. It
// makes the table an xmlparser.NameTable, which decoders resolve start
// tags through.
func (t *Interner) NameID(space, local string) (int32, bool) {
	return t.Lookup(Symbol{Space: space, Local: local})
}

// Intern returns the ID for s, assigning the next dense ID on first sight.
// IDs are stable for the lifetime of the table.
func (t *Interner) Intern(s Symbol) int32 {
	if id, ok := t.Lookup(s); ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.m.Load().(map[Symbol]int32)
	if id, ok := old[s]; ok {
		return id
	}
	next := make(map[Symbol]int32, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	id := int32(len(old))
	next[s] = id
	t.m.Store(next)
	return id
}

// Len reports how many symbols have been interned.
func (t *Interner) Len() int {
	return len(t.m.Load().(map[Symbol]int32))
}
