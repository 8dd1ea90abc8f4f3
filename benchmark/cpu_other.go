//go:build !linux

package main

// cpuNow is only implemented on Linux, where the benchmark is run;
// elsewhere the CPU metrics read 0.
func cpuNow() float64 { return 0 }
