package xsdtypes

import (
	"fmt"
	"strings"
)

// Exports for the external test package (simpletype_oracle_test.go).

// ProcessCPU is processCPU.
var ProcessCPU = processCPU

// RaceEnabled reports a build with the race detector.
func RaceEnabled() bool { return raceEnabled }

// RecursiveParse is Builtin.Parse as it was before register flattened the
// derivation chain into steps: a list type parses its items with
// RecursiveParse, and the chain's checks run by recursing to the root
// before checking each type. It is the oracle the flattened walk is
// compared with.
func (b *Builtin) RecursiveParse(lexical string) (Value, error) {
	norm := ApplyWhiteSpace(b.WS, lexical)
	var v Value
	var err error
	if b.List {
		var items []Value
		if norm != "" {
			for _, part := range strings.Fields(norm) {
				var iv Value
				if iv, err = b.ItemType.RecursiveParse(part); err != nil {
					break
				}
				items = append(items, iv)
			}
		}
		v = ListValue(items)
	} else {
		v, err = b.parsePrimitive(norm)
	}
	if err != nil {
		return Value{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	if err := b.recursiveCheckChain(&v, norm); err != nil {
		return Value{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	return v, nil
}

func (b *Builtin) recursiveCheckChain(v *Value, norm string) error {
	if b.Base != nil {
		if err := b.Base.recursiveCheckChain(v, norm); err != nil {
			return err
		}
	}
	if b.Check != nil {
		if err := b.Check(norm); err != nil {
			return err
		}
	}
	if !b.Facets.IsEmpty() {
		return b.Facets.Check(*v, norm)
	}
	return nil
}
