package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's gated costs are CPU times, not wall times. The kernel
// charges a task only the time it actually ran, and on a guest with
// paravirtual steal accounting that leaves out the time the hypervisor
// gave the CPU to other machines. Wall time on a shared host grows by
// the steal share; CPU time does not.

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockSeconds(clock int32) (float64, error) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(int64(clock)), uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()).Seconds(), nil
}

// processCPU is the CPU time all threads of this process have used, in
// seconds.
func processCPU() float64 {
	s, _ := clockSeconds(clockProcessCPU)
	return s
}

// threadCPU is the CPU time the calling thread has used, in seconds. It
// measures a goroutine only while the goroutine is locked to its thread.
func threadCPU() float64 {
	s, _ := clockSeconds(clockThreadCPU)
	return s
}

// pidCPU is the CPU time all threads of process pid have used, in
// seconds: its process CPU clock, MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED).
func pidCPU(pid int) (float64, error) {
	return clockSeconds(^int32(pid)<<3 | 2)
}
