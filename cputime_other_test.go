//go:build !unix

package repro_test

import "time"

// processCPU reads no CPU time where getrusage is unavailable, so
// benchmarks leave out their CPU metrics there.
func processCPU() time.Duration { return 0 }
