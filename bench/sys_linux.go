//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// nap sleeps in a raw nanosleep, which keeps the calling goroutine's P
// (see pace); it may return early.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
}
