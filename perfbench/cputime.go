package main

import (
	"runtime"
	"time"
)

// threadCPU reads the calling OS thread's CPU clock. It is set at start-up
// on platforms that have one (see cputime_linux.go); elsewhere cpuTime
// falls back to wall time.
var threadCPU func() (time.Duration, bool)

// cpuTime runs fn on one OS thread and returns the CPU time that thread
// spent in it: fn's own work, without waits for locks, for a CPU or for
// the hypervisor.
func cpuTime(fn func()) time.Duration {
	if threadCPU == nil {
		return wallTime(fn)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	a, ok := threadCPU()
	if !ok {
		return wallTime(fn)
	}
	fn()
	b, _ := threadCPU()
	return b - a
}

func wallTime(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}
