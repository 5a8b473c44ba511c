//go:build race

package xsdtypes

func init() { raceEnabled = true }
