package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU reads the calling OS thread's CPU clock. It advances only
// while the thread runs: time the hypervisor gives other tenants (steal)
// and time other threads hold the CPU do not count. The caller must hold
// its goroutine on its thread (runtime.LockOSThread).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		// clock_gettime fails only for an unknown clock or a bad
		// address, and this clock exists on every Linux since 2.6.12.
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
