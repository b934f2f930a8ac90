package csr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"symcluster/internal/matrix"
)

// testMatrix builds a deterministic sparse matrix with rows×cols shape,
// ~density nonzeros per row, empty rows sprinkled in, and non-integer
// values.
func testMatrix(t *testing.T, rows, cols, perRow int, seed uint64) *matrix.CSR {
	t.Helper()
	b := matrix.NewBuilder(rows, cols)
	x := seed
	next := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(n))
	}
	for i := 0; i < rows; i++ {
		if next(7) == 0 {
			continue // empty row
		}
		for k := 0; k < perRow; k++ {
			c := next(cols)
			v := float64(next(1000)+1) / 7.0
			b.Add(i, c, v)
		}
	}
	return b.Build()
}

// negated returns −1.5·m.
func negated(m *matrix.CSR) *matrix.CSR {
	m = m.Clone()
	for i := range m.Val {
		m.Val[i] *= -1.5
	}
	return m
}

func sameMatrix(t *testing.T, want, got *matrix.CSR) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if want.NNZ() != got.NNZ() {
		t.Fatalf("nnz %d, want %d", got.NNZ(), want.NNZ())
	}
	for i := range want.RowPtr {
		if want.RowPtr[i] != got.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if want.ColIdx[k] != got.ColIdx[k] {
			t.Fatalf("ColIdx[%d] = %d, want %d", k, got.ColIdx[k], want.ColIdx[k])
		}
		if math.Float64bits(want.Val[k]) != math.Float64bits(got.Val[k]) {
			t.Fatalf("Val[%d] = %v, want %v (not bit-identical)", k, got.Val[k], want.Val[k])
		}
	}
}

func writeAndOpen(t *testing.T, m *matrix.CSR) (*Mapped, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.csr")
	if err := WriteMatrix(context.Background(), path, m); err != nil {
		t.Fatalf("WriteMatrix: %v", err)
	}
	mp, err := Open(context.Background(), path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { mp.Close() })
	return mp, path
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *matrix.CSR
	}{
		{"dense-ish", testMatrix(t, 50, 50, 8, 1)},
		{"rectangular", testMatrix(t, 31, 77, 4, 2)},
		{"single", testMatrix(t, 1, 1, 1, 3)},
		{"empty-rows", &matrix.CSR{Rows: 5, Cols: 5, RowPtr: make([]int64, 6)}},
		{"empty-rectangular", matrix.Zero(3, 4)},
		{"negative-values", negated(testMatrix(t, 40, 23, 5, 4))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mp, path := writeAndOpen(t, tc.m)
			sameMatrix(t, tc.m, mp.View())
			// One wire format: the in-memory image is the file, byte for
			// byte, and decodes back to the same matrix.
			image := Encode(tc.m)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(image, file) {
				t.Fatal("Encode image differs from the WriteMatrix file")
			}
			back, err := Decode(image)
			if err != nil {
				t.Fatalf("Decode(Encode(m)): %v", err)
			}
			sameMatrix(t, tc.m, back)
		})
	}
}

func TestRoundTripKernelsWork(t *testing.T) {
	// The whole point of the mapped view: existing kernels consume it
	// unchanged and produce bit-identical results.
	m := testMatrix(t, 60, 60, 6, 9)
	mp, _ := writeAndOpen(t, m)
	v := mp.View()

	wantT := m.Transpose()
	gotT := v.Transpose()
	sameMatrix(t, wantT, gotT)

	want, _, err := matrix.MulPrunedCtx(context.Background(), m, wantT, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := matrix.MulPrunedCtx(context.Background(), v, gotT, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sameMatrix(t, want, got)
}

func TestMappedBytesGauge(t *testing.T) {
	before := MappedBytes()
	m := testMatrix(t, 40, 40, 5, 4)
	mp, _ := writeAndOpen(t, m)
	if mmapSupported && hostLittleEndian {
		if MappedBytes() != before+mp.Bytes() {
			t.Fatalf("gauge %d after open, want %d", MappedBytes(), before+mp.Bytes())
		}
	}
	mp.Close()
	mp.Close() // idempotent
	if MappedBytes() != before {
		t.Fatalf("gauge %d after close, want %d", MappedBytes(), before)
	}
}

func TestWriterRejectsBadAppends(t *testing.T) {
	dir := t.TempDir()
	newW := func() *Writer {
		w, err := NewWriter(filepath.Join(dir, "w.csr"), 4, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := newW()
	if err := w.Append(2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, 0, 1); err == nil {
		t.Fatal("row going backwards not rejected")
	}
	w.Abort()

	w = newW()
	w.Append(0, 2, 1)
	if err := w.Append(0, 2, 1); err == nil {
		t.Fatal("duplicate column not rejected")
	}
	w.Abort()

	w = newW()
	if err := w.Append(0, 5, 1); err == nil {
		t.Fatal("out-of-range column not rejected")
	}
	w.Abort()

	w = newW()
	w.Append(0, 0, 1)
	if err := w.Close(context.Background()); err == nil {
		t.Fatal("Close with missing entries not rejected")
	}
	if _, err := os.Stat(filepath.Join(dir, "w.csr")); !os.IsNotExist(err) {
		t.Fatal("failed Close left a destination file behind")
	}
}

// corrupt applies f to a valid image and expects Decode to reject the
// result.
func corrupt(t *testing.T, name string, f func(data []byte) []byte) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		mutated := f(Encode(testMatrix(t, 20, 20, 4, 7)))
		if _, err := Decode(mutated); !errors.Is(err, ErrFormat) {
			t.Fatalf("Decode of corrupted input: err = %v, want ErrFormat", err)
		}
	})
}

func TestDecodeRejectsCorruption(t *testing.T) {
	corrupt(t, "empty", func([]byte) []byte { return nil })
	corrupt(t, "junk", func([]byte) []byte { return []byte("junk") })
	corrupt(t, "bad-magic", func(d []byte) []byte { d[0] ^= 0xff; return d })
	// The unchecksummed pre-codec matrix format ("CSR1" magic) that MCL
	// checkpoints used to be written in: rejected, never misread.
	corrupt(t, "legacy-csr1-magic", func(d []byte) []byte { copy(d, "CSR1"); return d })
	corrupt(t, "bad-version", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[4:8], 99)
		return d
	})
	corrupt(t, "truncated-header", func(d []byte) []byte { return d[:headerSize-1] })
	corrupt(t, "truncated-body", func(d []byte) []byte { return d[:len(d)-1] })
	corrupt(t, "trailing-garbage", func(d []byte) []byte { return append(d, 0) })
	corrupt(t, "header-crc", func(d []byte) []byte {
		// Flip a count without fixing the header CRC.
		d[8] ^= 1
		return d
	})
	corrupt(t, "rowptr-bitflip", func(d []byte) []byte { d[headerSize] ^= 1; return d })
	corrupt(t, "colidx-bitflip", func(d []byte) []byte {
		nnz := int64(binary.LittleEndian.Uint64(d[24:32]))
		l, _ := layoutFor(20, 20, nnz)
		d[l.colIdxOff] ^= 1
		return d
	})
	corrupt(t, "val-bitflip", func(d []byte) []byte { d[len(d)-1] ^= 0x80; return d })
	// Checksums can be forged; structural validation is the last line.
	corrupt(t, "colidx-out-of-range-crc-valid", func(d []byte) []byte {
		nnz := int64(binary.LittleEndian.Uint64(d[24:32]))
		l, _ := layoutFor(20, 20, nnz)
		binary.LittleEndian.PutUint32(d[l.colIdxOff:], 0xFF)
		binary.LittleEndian.PutUint32(d[36:40], crc32.ChecksumIEEE(d[l.colIdxOff:l.colIdxOff+4*nnz]))
		var h [headerSize]byte
		copy(h[:], d)
		h = encodeHeaderRaw(h)
		copy(d, h[:])
		return d
	})
	corrupt(t, "reserved-nonzero", func(d []byte) []byte { d[50] = 1; return d })
}

func TestDecodeHostileCounts(t *testing.T) {
	// A header claiming absurd counts must fail before any allocation
	// sized by them: layoutFor's bounds reject first.
	var h [headerSize]byte
	copy(h[0:4], Magic)
	binary.LittleEndian.PutUint32(h[4:8], Version)
	binary.LittleEndian.PutUint64(h[8:16], 1<<50)  // rows
	binary.LittleEndian.PutUint64(h[16:24], 1<<50) // cols
	binary.LittleEndian.PutUint64(h[24:32], 1<<60) // nnz
	// Stamp a valid header CRC so the counts are actually reached.
	hdr := encodeHeaderRaw(h)
	if _, err := Decode(hdr[:]); err == nil {
		t.Fatal("hostile counts accepted")
	}
}

func TestTransposeToFile(t *testing.T) {
	m := testMatrix(t, 45, 30, 5, 11)
	dir := t.TempDir()
	dst := filepath.Join(dir, "t.csr")
	// Tiny budget to force spill runs through the merge path.
	if err := TransposeToFile(context.Background(), m, dir, dst, 1); err != nil {
		t.Fatal(err)
	}
	mp, err := Open(context.Background(), dst)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	sameMatrix(t, m.Transpose(), mp.View())
}

func TestAugmentIdentityToFile(t *testing.T) {
	m := testMatrix(t, 30, 30, 4, 17)
	// Force one diagonal that cancels to exactly zero and one that sums.
	b := matrix.NewBuilder(30, 30)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			b.Add(i, int(c), vals[k])
		}
	}
	b.Add(3, 3, -1)
	b.Add(4, 4, 2.5)
	m = b.Build()

	dst := filepath.Join(t.TempDir(), "i.csr")
	if err := AugmentIdentityToFile(context.Background(), m, dst); err != nil {
		t.Fatal(err)
	}
	mp, err := Open(context.Background(), dst)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	sameMatrix(t, m.AddIdentity(), mp.View())
}

// encodeHeaderRaw stamps the header CRC over arbitrary header bytes so
// tests can craft hostile-but-CRC-valid headers.
func encodeHeaderRaw(h [headerSize]byte) [headerSize]byte {
	binary.LittleEndian.PutUint32(h[44:48], crc32.ChecksumIEEE(h[:44]))
	return h
}
