//go:build !linux

package harness

import "time"

var cpuClockBase = time.Now()

// mustThreadCPUNanos falls back to the monotonic wall clock where no
// per-thread CPU clock is wired up; see cputime_linux.go.
func mustThreadCPUNanos() int64 { return int64(time.Since(cpuClockBase)) }
