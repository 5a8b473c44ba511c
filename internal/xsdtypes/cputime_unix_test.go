//go:build unix

package xsdtypes

import (
	"syscall"
	"time"
)

// processCPU returns the user and system CPU time this process has used,
// so a bound on work holds while other processes load the host.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
