//go:build race

package bind

func init() { raceEnabled = true }
