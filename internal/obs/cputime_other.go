//go:build !unix

package obs

import "time"

// ProcessCPUTime is unavailable off unix; stage spans' cpu_millis read 0.
func ProcessCPUTime() time.Duration { return 0 }
