package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID, a nanosecond clock of
// the calling thread's CPU time (getrusage's thread times are tick-based).
const clockThreadCPUTimeID = 3

func init() { threadCPU = clockThreadCPU }

func clockThreadCPU() (time.Duration, bool) {
	var ts syscall.Timespec
	_, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), e == 0
}
