package jobstore

import (
	"reflect"
	"testing"
)

// FuzzScanFrames: scanFrames is all that stands between a damaged WAL
// and replay, so on any bytes it must not panic, must end the intact
// prefix inside the data, and must read that prefix the same way when
// handed it alone — Open truncates the file there and the next boot
// replays what is left. Seeded with the corrupt-file tests' images: the
// clean log, its last frame torn inside the header, at its end, inside
// the payload and one byte short, and the three mid-file corruptions of
// corrupt_test.go.
func FuzzScanFrames(f *testing.F) {
	_, full := walImage(f)
	offs := frameOffsets(f, full)
	f.Add([]byte{})
	f.Add(full)
	last := offs[len(offs)-1]
	for _, cut := range []int{last + 1, last + frameHeaderBytes - 1, last + frameHeaderBytes, (last + len(full)) / 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	for _, mutate := range midFileCorruptions(offs[2]) {
		img := append([]byte(nil), full...)
		mutate(img)
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, valid := scanFrames(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d over %d bytes", valid, len(data))
		}
		framed := int64(len(payloads)) * frameHeaderBytes
		for _, p := range payloads {
			framed += int64(len(p))
		}
		if framed != valid {
			t.Fatalf("%d payloads frame to %d bytes, valid = %d", len(payloads), framed, valid)
		}
		again, validAgain := scanFrames(data[:valid])
		if validAgain != valid || !reflect.DeepEqual(again, payloads) {
			t.Fatalf("re-scanning the %d-byte intact prefix: %d payloads ending at %d, first scan %d ending at %d",
				valid, len(again), validAgain, len(payloads), valid)
		}
	})
}
