//go:build unix

package repro_test

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time, user plus system, that this process has
// used so far, or 0 when getrusage fails.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
