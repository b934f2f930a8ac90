package jobstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// WAL framing. Each record is one frame:
//
//	u32 payload length (little-endian)
//	u32 CRC32 (IEEE) of the payload
//	payload bytes
//
// Appends write the whole frame with a single write(2) followed by
// fsync, so a crash leaves at most one torn frame at the tail. Replay
// scans frames front to back and stops at the first frame whose length
// header overruns the file or whose checksum fails; everything from
// that point on is a torn tail and is truncated away, which is safe
// because frames are only ever appended.
//
// Corruption contract — halt, never skip. A bad frame ANYWHERE in the
// file, mid-file bit rot included, ends replay at that frame: the
// intact prefix is kept, everything from the bad frame on is
// discarded and truncated so appends restart at a known-good
// boundary. Skipping past a bad frame is deliberately not attempted:
// with length-prefixed framing a corrupt length header poisons every
// downstream frame boundary, so "the next frame" cannot be trusted —
// and resynchronizing heuristically could resurrect stale records
// (e.g. re-running a finished job, or reviving a canceled one that a
// cluster peer already adopted). Losing the suffix is always safe:
// the store's records are monotonic per job, so a truncated suffix
// can only roll a job back to an earlier state, which replay already
// handles (Running replays as Pending). TestReplayHaltsAtMidFileCorruption
// asserts this contract.

const (
	frameHeaderBytes = 8
	// maxFrameBytes defends replay against a corrupt length header
	// asking for gigabytes: any frame claiming more than this is torn.
	maxFrameBytes = 256 << 20
)

// wal is an append-only framed log file.
type wal struct {
	f     *os.File
	path  string
	bytes int64
}

// openWAL opens (creating if absent) the log at path, replays every
// intact frame, truncates any torn tail, and returns the log
// positioned for appending plus the replayed payloads in append order.
func openWAL(path string) (*wal, [][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("jobstore: reading wal: %w", err)
	}
	payloads, valid := scanFrames(data)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobstore: opening wal: %w", err)
	}
	if int64(len(data)) > valid {
		// Torn tail from a crash mid-append: cut it so the next append
		// starts at a frame boundary.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("jobstore: truncating torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("jobstore: syncing truncated wal: %w", err)
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobstore: seeking wal tail: %w", err)
	}
	return &wal{f: f, path: path, bytes: valid}, payloads, nil
}

// scanFrames walks the framed payloads in data and returns every intact
// payload plus the byte offset where the intact prefix ends.
func scanFrames(data []byte) (payloads [][]byte, valid int64) {
	off := 0
	for off+frameHeaderBytes <= len(data) {
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxFrameBytes || off+frameHeaderBytes+int(n) > len(data) {
			break
		}
		payload := data[off+frameHeaderBytes : off+frameHeaderBytes+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		payloads = append(payloads, payload)
		off += frameHeaderBytes + int(n)
	}
	return payloads, int64(off)
}

// append frames and writes one payload, then fsyncs. On a write error
// the file is truncated back to the last known-good boundary so a
// partial frame never lingers ahead of the append cursor.
func (w *wal) append(payload []byte) error {
	frame := make([]byte, frameHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderBytes:], payload)
	if _, err := w.f.Write(frame); err != nil {
		w.f.Truncate(w.bytes)
		w.f.Seek(w.bytes, 0)
		return fmt.Errorf("jobstore: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("jobstore: wal sync: %w", err)
	}
	w.bytes += int64(len(frame))
	return nil
}

// close releases the file handle; the zero wal of a memory-only store
// has none.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}
