package xmlparser

// Bindings is a namespace scope: one stack of URIs per prefix ("" for the
// default namespace), innermost last. An element's declarations are pushed
// when it opens and popped back to a mark when it closes, so a lookup costs
// the same at any nesting depth. The zero value is an empty scope.
type Bindings struct {
	stacks map[string][]string
	pushed []string // prefixes in push order, for Pop
}

// Mark returns the position Pop rewinds to.
func (b *Bindings) Mark() int { return len(b.pushed) }

// Push binds prefix to uri, shadowing any outer binding of prefix.
func (b *Bindings) Push(prefix, uri string) {
	if b.stacks == nil {
		b.stacks = map[string][]string{}
	}
	b.stacks[prefix] = append(b.stacks[prefix], uri)
	b.pushed = append(b.pushed, prefix)
}

// Pop drops the bindings pushed since mark. Most elements declare nothing,
// so the check inlines into recursive walks and the loop, which would
// enlarge their stack frames, does not.
func (b *Bindings) Pop(mark int) {
	if len(b.pushed) > mark {
		b.pop(mark)
	}
}

//go:noinline
func (b *Bindings) pop(mark int) {
	for _, prefix := range b.pushed[mark:] {
		stack := b.stacks[prefix]
		b.stacks[prefix] = stack[:len(stack)-1]
	}
	b.pushed = b.pushed[:mark]
}

// Lookup returns the innermost URI bound to prefix, as declared (an
// undeclared default namespace reads as ""), and whether one is in scope.
func (b *Bindings) Lookup(prefix string) (string, bool) {
	stack := b.stacks[prefix]
	if len(stack) == 0 {
		return "", false
	}
	return stack[len(stack)-1], true
}
