//go:build unix

package obs

import (
	"syscall"
	"time"
)

// ProcessCPUTime returns the process's cumulative CPU time
// (user + system) via getrusage. It backs the stage spans' cpu_millis
// (MeterStage); on platforms without getrusage it reports 0 and the
// column stays empty rather than failing.
func ProcessCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
