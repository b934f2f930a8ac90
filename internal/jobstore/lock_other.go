//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package jobstore

import "os"

// lockDir takes no lock: this platform has no flock. Open runs as the
// sole owner, and TryOpen always answers ErrLocked, so a journal is
// never adopted where its owner's liveness cannot be read.
func lockDir(_ string, wait bool) (*os.File, error) {
	if wait {
		return nil, nil
	}
	return nil, ErrLocked
}
