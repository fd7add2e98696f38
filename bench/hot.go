package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// keepHot holds the machine in one performance regime for the length of a
// benchmark. On the small virtual machines this ladder runs on, the host
// packs a guest's virtual CPUs onto one physical core whenever they idle
// for more than a few tens of milliseconds and spreads them again only
// after a second or two of unbroken load (measured with a two-thread
// probe: pairs of CPU-bound threads take 2.0× a single thread's time after
// any pause, 1.0× after ~1.5 s of spinning). Closed-loop serving workloads
// idle in small gaps all the time, so without help a run lands in one
// regime or the other — 83 or 105 jobs/s on serve_warm_tiny, in phases of
// minutes — and no bound below that 25 % gap can hold.
//
// The remedy controls the environment, not the programs: one spinning
// thread per CPU in the benchmark's own process, at SCHED_IDLE priority.
// The kernel runs such a thread only when the CPU has nothing else to do
// and preempts it the moment anything else wakes, so it takes no time from
// the daemons or the load generator (the probe's single-thread time is
// unchanged with the spinners running); it only stops the virtual CPUs
// from ever looking idle to the host.
//
// The returned function stops the spinners and waits for them. If the
// kernel refuses SCHED_IDLE, nothing spins: a spinner at normal priority
// would compete with what is being measured.
func keepHot() (stop func()) {
	var quit atomic.Bool
	var wg sync.WaitGroup
	n := runtime.NumCPU()
	// The spinners never yield; give the scheduler a P for each so the
	// benchmark's own goroutines are not queued behind them.
	prev := runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			if err := setSchedIdle(); err != nil {
				runtime.UnlockOSThread()
				fmt.Fprintln(os.Stderr, "bench: cannot keep the CPUs hot (timings will be noisier):", err)
				return
			}
			for !quit.Load() {
			}
			// Exit still locked: the runtime then discards the thread, idle
			// priority and all, instead of reusing it.
		}()
	}
	return func() {
		quit.Store(true)
		wg.Wait()
		runtime.GOMAXPROCS(prev)
	}
}

// setSchedIdle moves the calling thread to the SCHED_IDLE policy.
// Lowering one's own priority needs no privilege.
func setSchedIdle() error {
	const schedIdle = 5
	param := struct{ priority int32 }{0}
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
	}
	return nil
}
