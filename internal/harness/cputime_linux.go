package harness

import (
	"syscall"
	"unsafe"
)

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID

// mustThreadCPUNanos returns the CPU time, user and system, consumed so far
// by the calling OS thread. Time the thread spends descheduled while other
// processes run is not counted, so a difference of two readings is the
// work done in between. Callers lock the goroutine to its thread. Linux
// has provided this clock since 2.6.12, so a failure is a broken host.
func mustThreadCPUNanos() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("harness: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return ts.Nano()
}
