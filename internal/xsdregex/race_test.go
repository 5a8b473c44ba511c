//go:build race

package xsdregex

func init() { raceEnabled = true }
