//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package jobstore

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive flock on dir's lock file — its own file, as
// compaction renames a new log over wal — waiting for it when wait is
// set, else answering ErrLocked while another open file holds it. The
// kernel drops it when the file closes or its process dies.
func lockDir(dir string, wait bool) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: opening lock: %w", err)
	}
	how := syscall.LOCK_EX
	if !wait {
		how |= syscall.LOCK_NB
	}
	err = syscall.Flock(int(f.Fd()), how)
	for err == syscall.EINTR {
		err = syscall.Flock(int(f.Fd()), how)
	}
	if err != nil {
		f.Close()
		if err == syscall.EWOULDBLOCK {
			return nil, ErrLocked
		}
		return nil, fmt.Errorf("jobstore: locking journal: %w", err)
	}
	return f, nil
}
