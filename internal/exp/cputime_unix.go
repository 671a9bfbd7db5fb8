//go:build unix

package exp

import (
	"syscall"
	"time"
)

// cpuNow returns the CPU time (user plus system) the process has used,
// read through getrusage(RUSAGE_SELF). Differences of two readings time
// a run by the CPU it took, so other processes' load on the host does
// not enter the paper's CPU-time ratios.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
