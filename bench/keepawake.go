package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// The sandbox this benchmark runs in is a small virtual machine whose host
// parks idle virtual CPUs: when a second thread wakes (a GC worker, an HTTP
// client), both run at about half speed for up to a second before the host
// spreads them again. A single-client workload wakes the second CPU for
// every GC cycle, and that alone moved ops_per_s by 10 % from run to run.
// Keeping every CPU busy with a lowest-priority spinner removes the effect —
// like idle=poll on a benchmark machine. The spinner runs at nice 19, so the
// kernel gives it only cycles the benchmark leaves idle.

const spinArg = "-keep-awake-child"

// startKeepAwake launches the spinner as a child process and returns the
// function that stops it and waits for it to end. The child also exits on
// its own when this process dies, because its stdin then reaches EOF.
func startKeepAwake(threads int) (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, spinArg, fmt.Sprint(threads))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		//pplint:ignore errdrop closing the pipe is the stop signal; the child exits on EOF whether or not Close reports an error
		stdin.Close()
		//pplint:ignore errdrop the child's exit status carries nothing
		_ = cmd.Wait()
	}, nil
}

// keepAwakeChild is the child's main: spin on `threads` OS threads at the
// lowest priority until stdin closes.
func keepAwakeChild(threads int) {
	for i := 0; i < threads; i++ {
		go func() {
			runtime.LockOSThread()
			// On Linux a nice value is per thread; 0 names the calling one.
			// A spinner that cannot lower its priority would take cycles
			// from the benchmark, so it does not spin at all.
			if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
				return
			}
			for x := uint64(1); ; x++ {
				if x == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	//pplint:ignore errdrop EOF and a read error both mean the parent is gone: return either way
	_, _ = io.Copy(io.Discard, os.Stdin)
}
