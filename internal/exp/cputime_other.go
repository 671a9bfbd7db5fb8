//go:build !unix

package exp

import "time"

var wallStart = time.Now()

// cpuNow falls back to wall-clock time on platforms whose syscall
// package has no Getrusage.
func cpuNow() time.Duration { return time.Since(wallStart) }
