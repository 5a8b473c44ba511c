//go:build !unix

package xsdtypes

import "time"

var processStart = time.Now()

// processCPU falls back to wall-clock time where getrusage is missing.
func processCPU() time.Duration { return time.Since(processStart) }
