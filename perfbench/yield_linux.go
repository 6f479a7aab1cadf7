//go:build linux

package main

import "syscall"

// osYield hands the CPU to any other runnable thread. A waiting client
// that only yields to goroutines keeps its thread on the CPU, so a
// housekeeping thread that wakes up waits a whole scheduler tick (4 ms at
// 250 Hz) to preempt it, and the client sends late by that much.
func osYield() { _, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
