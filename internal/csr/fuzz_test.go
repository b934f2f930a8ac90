package csr

import (
	"encoding/binary"
	"strings"
	"testing"

	"symcluster/internal/graph"
)

// FuzzDecode throws arbitrary bytes at the binary CSR decoder — the
// one decoder behind graph files, MCL checkpoint blobs and the public
// matrix codec. The
// contract under fuzzing: Decode either returns a valid matrix or an
// error — never a panic, never an allocation sized by unvalidated
// header counts (the size cross-check runs before any section view).
// The seed corpus is round-tripped real graphs plus targeted
// single-byte corruptions of one.
func FuzzDecode(f *testing.F) {
	seed := func(m string) []byte {
		g, err := graph.ReadEdgeList(strings.NewReader(m))
		if err != nil {
			f.Fatal(err)
		}
		return Encode(g.Adj)
	}
	valid := seed("0 1\n1 2 2.5\n2 0\n3 3 0.125\n")
	f.Add(valid)
	f.Add(seed("0 1\n"))
	f.Add(seed("0 0 1\n1 1 2\n2 2 3\n"))
	for _, off := range []int{0, 5, 9, 33, 45, 50, headerSize, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-3])
	// A CRC-valid header with hostile counts over an empty body.
	var h [headerSize]byte
	copy(h[0:4], Magic)
	binary.LittleEndian.PutUint32(h[4:8], Version)
	binary.LittleEndian.PutUint64(h[8:16], 1<<39)
	binary.LittleEndian.PutUint64(h[24:32], 1<<39)
	hostile := encodeHeaderRaw(h)
	f.Add(hostile[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// Anything the decoder accepts must satisfy the invariants the
		// kernels index by without bounds checks.
		if verr := m.Validate(); verr != nil {
			t.Fatalf("Decode accepted a matrix failing Validate: %v", verr)
		}
		if m.Rows > 0 {
			m.Row(m.Rows - 1) // must not panic
		}
	})
}
