package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU affinity keeps the load generator's core apart from the servers'
// cores. Without it the kernel is free to run a server on the core the
// generator's timer is about to fire on, and on a two-core machine the
// generator then releases requests milliseconds late (measured: lateness
// p99 3.7 ms unpinned). The generator keeps the first allowed CPU; server
// subprocesses get the rest.

type cpuMask [16]uint64 // 1024 CPUs

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

func (m cpuMask) cpus() []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// cpuPlan splits the allowed CPUs between generator and servers. With one
// CPU there is nothing to split and nothing is pinned.
type cpuPlan struct {
	generator, servers cpuMask
	pinned             bool
}

func planCPUs() cpuPlan {
	all, err := getAffinity()
	cpus := all.cpus()
	if err != nil || len(cpus) < 2 {
		return cpuPlan{}
	}
	return cpuPlan{generator: maskOf(cpus[:1]), servers: maskOf(cpus[1:]), pinned: true}
}

// pinGenerator moves every thread of this process onto the generator's CPU;
// threads created later inherit it.
func (p cpuPlan) pinGenerator() bool {
	if !p.pinned {
		return false
	}
	entries, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return false
	}
	ok := true
	for _, e := range entries {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			ok = setAffinity(tid, p.generator) == nil && ok
		}
	}
	return ok
}

// startOnServerCPUs runs start (which forks a server) on a thread whose mask
// is the servers': a child inherits the mask of the thread that forked it.
func (p cpuPlan) startOnServerCPUs(start func() error) error {
	if !p.pinned {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, p.servers); err != nil {
		return start()
	}
	defer setAffinity(0, p.generator)
	return start()
}
