package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// useCPUs gives the run exactly n CPUs: GOMAXPROCS = n here and in every
// worker (through the environment), and every thread of this process — so
// every thread and child it starts later — restricted to the first n CPUs it
// may use.
//
// A serial simulation keeps one core busy; whether the kernel also puts the
// collector's workers and the isolated workers' start-up and teardown on the
// second core is its own choice, and on this box it sticks to one choice for
// minutes: sweep_cells read 1.12 s per rep when it did and 1.31 s when it did
// not (cpu1 100% idle, same CPU time), flipping between identical runs.
// Sized to the cells' shard count, the run reads the same either way.
func useCPUs(n int) error {
	os.Setenv("GOMAXPROCS", strconv.Itoa(n))
	runtime.GOMAXPROCS(n)

	var mask [16]uint64 // room for 1024 CPUs
	size, ptr := unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, ptr); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	kept := 0
	for i := range mask {
		for bit := uint64(1); bit != 0; bit <<= 1 {
			if mask[i]&bit == 0 {
				continue
			}
			if kept++; kept > n {
				mask[i] &^= bit
			}
		}
	}
	if kept < n {
		return fmt.Errorf("the workload has %d shards and this process may use %d CPUs", n, kept)
	}
	// A thread inherits its creator's mask, so two passes over the thread list
	// also catch a thread that an unpinned one started during the first.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread exited since it was listed.
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, ptr); errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}
