//go:build !linux

package main

import "time"

// The benchmark's numbers are defined on Linux. Elsewhere it builds and
// runs, with a coarser pacer and without CPU time (cpu_ms_per_op reads 0).

func cpuSeconds() float64 { return 0 }

func nap(d time.Duration) { time.Sleep(d) }
