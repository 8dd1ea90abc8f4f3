package main

import (
	"syscall"
	"unsafe"
)

// cpuNow returns the process's CPU time so far, user and system, in ns.
// CLOCK_PROCESS_CPUTIME_ID has the scheduler's resolution; getrusage is
// charged by the timer tick, too coarse for a cell of a few milliseconds.
func cpuNow() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Nano())
}
