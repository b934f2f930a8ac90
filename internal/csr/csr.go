// Package csr is the out-of-core graph store: a versioned binary
// on-disk CSR format with an mmap-backed zero-copy reader, plus
// external-sort streaming ingestion that builds the file from chunked
// edge-list input in bounded memory.
//
// # On-disk format (version 1, DESIGN.md §13)
//
// A .csr file is a 64-byte header followed by three sections, each
// 8-byte aligned, all little-endian:
//
//	offset  size        field
//	0       4           magic "SCSR"
//	4       4           format version (uint32, currently 1)
//	8       8           rows (uint64)
//	16      8           cols (uint64)
//	24      8           nnz (uint64)
//	32      4           CRC32-IEEE of the row-pointer section
//	36      4           CRC32-IEEE of the column-index section
//	40      4           CRC32-IEEE of the value section
//	44      4           CRC32-IEEE of header bytes [0, 44)
//	48      16          reserved, must be zero
//	64      8·(rows+1)  row pointers (int64)
//	...     4·nnz       column indices (int32), padded to 8 bytes
//	...     8·nnz       values (float64)
//
// Section CRCs cover exactly the section payload (padding excluded).
// Writers produce the file under a temporary name, fsync, and rename
// into place, so a crash leaves either the old file or the complete
// new one. Readers verify all four CRCs and the structural CSR
// invariants before returning a view, so a truncated, corrupted or
// hostile file yields an error — never a panic, never an
// over-allocation (every allocation is bounded by the actual file
// size, which is checked against the header's claimed layout first).
//
// # Zero-copy mapping
//
// On little-endian hosts the decoded sections are unsafe.Slice views
// directly over the mapped file, so a *matrix.CSR returned by
// Mapped.View costs no copy and no resident heap: the kernels stream
// file-backed pages that the OS evicts under memory pressure, which is
// what bounds peak RSS for out-of-core runs. On big-endian or
// mmap-less platforms Open falls back to reading and decoding the file
// into ordinary heap slices (correct, just not out-of-core).
//
// Fault injection: the "csr.write" site fires before a file is
// finalized and "csr.ingest" before an ingest merge begins.
package csr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"symcluster/internal/matrix"
)

// Magic identifies a binary CSR file.
const Magic = "SCSR"

// Version is the current format version. Readers reject newer
// versions (forward compatibility is explicit, never guessed); any
// older version must keep decoding forever.
const Version = 1

// headerSize is the fixed header length in bytes.
const headerSize = 64

// maxCount bounds rows and nnz as claimed by a header. Far above any
// real graph, low enough that every layout computation below fits in
// int64 without overflow.
const maxCount = int64(1) << 40

// ErrFormat marks a file rejected by the decoder: wrong magic, bad
// version, corrupt CRC, truncation, or violated CSR invariants.
var ErrFormat = errors.New("csr: bad file format")

// hostLittleEndian reports whether this host stores integers
// little-endian, which is what gates the zero-copy view.
var hostLittleEndian = func() bool {
	var x uint16 = 0x0102
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// header is the decoded fixed header.
type header struct {
	version    uint32
	rows, cols int64
	nnz        int64
	crcRowPtr  uint32
	crcColIdx  uint32
	crcVal     uint32
}

// layout is the byte layout implied by (rows, nnz): section offsets
// and the total file size.
type layout struct {
	rowPtrOff, colIdxOff, valOff, total int64
}

// align8 rounds n up to the next multiple of 8.
func align8(n int64) int64 { return (n + 7) &^ 7 }

// layoutFor computes the section layout, rejecting dimension claims
// that are negative, absurd, or would overflow the arithmetic.
func layoutFor(rows, cols, nnz int64) (layout, error) {
	var l layout
	if rows < 0 || cols < 0 || nnz < 0 {
		return l, fmt.Errorf("%w: negative dimensions %dx%d nnz=%d", ErrFormat, rows, cols, nnz)
	}
	if rows > maxCount || nnz > maxCount {
		return l, fmt.Errorf("%w: dimensions %dx%d nnz=%d exceed format bounds", ErrFormat, rows, cols, nnz)
	}
	if cols > math.MaxInt32 {
		return l, fmt.Errorf("%w: %d columns exceed int32 index range", ErrFormat, cols)
	}
	l.rowPtrOff = headerSize
	l.colIdxOff = l.rowPtrOff + 8*(rows+1)
	l.valOff = align8(l.colIdxOff + 4*nnz)
	l.total = l.valOff + 8*nnz
	return l, nil
}

// encodeHeader renders the fixed header with its own CRC stamped.
func encodeHeader(h header) [headerSize]byte {
	var b [headerSize]byte
	copy(b[0:4], Magic)
	binary.LittleEndian.PutUint32(b[4:8], h.version)
	binary.LittleEndian.PutUint64(b[8:16], uint64(h.rows))
	binary.LittleEndian.PutUint64(b[16:24], uint64(h.cols))
	binary.LittleEndian.PutUint64(b[24:32], uint64(h.nnz))
	binary.LittleEndian.PutUint32(b[32:36], h.crcRowPtr)
	binary.LittleEndian.PutUint32(b[36:40], h.crcColIdx)
	binary.LittleEndian.PutUint32(b[40:44], h.crcVal)
	binary.LittleEndian.PutUint32(b[44:48], crc32.ChecksumIEEE(b[0:44]))
	return b
}

// parseHeader decodes and verifies the fixed header. The header CRC is
// checked before any claimed count is trusted.
func parseHeader(data []byte) (header, error) {
	var h header
	if len(data) < headerSize {
		return h, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrFormat, len(data), headerSize)
	}
	if string(data[0:4]) != Magic {
		return h, fmt.Errorf("%w: bad magic %q", ErrFormat, data[0:4])
	}
	if got, want := binary.LittleEndian.Uint32(data[44:48]), crc32.ChecksumIEEE(data[0:44]); got != want {
		return h, fmt.Errorf("%w: header checksum mismatch (got %08x, want %08x)", ErrFormat, got, want)
	}
	h.version = binary.LittleEndian.Uint32(data[4:8])
	if h.version == 0 || h.version > Version {
		return h, fmt.Errorf("%w: unsupported format version %d (this build reads <= %d)", ErrFormat, h.version, Version)
	}
	for _, b := range data[48:headerSize] {
		if b != 0 {
			return h, fmt.Errorf("%w: reserved header bytes are not zero", ErrFormat)
		}
	}
	rows := binary.LittleEndian.Uint64(data[8:16])
	cols := binary.LittleEndian.Uint64(data[16:24])
	nnz := binary.LittleEndian.Uint64(data[24:32])
	if rows > uint64(maxCount) || cols > uint64(maxCount) || nnz > uint64(maxCount) {
		return h, fmt.Errorf("%w: dimensions %dx%d nnz=%d exceed format bounds", ErrFormat, rows, cols, nnz)
	}
	h.rows, h.cols, h.nnz = int64(rows), int64(cols), int64(nnz)
	h.crcRowPtr = binary.LittleEndian.Uint32(data[32:36])
	h.crcColIdx = binary.LittleEndian.Uint32(data[36:40])
	h.crcVal = binary.LittleEndian.Uint32(data[40:44])
	return h, nil
}

// Encode renders m as a complete binary CSR image — byte for byte the
// file WriteMatrix produces — for callers that want the wire format in
// memory (MCL flow checkpoints, the public matrix codec). m must be a
// well-formed CSR; dimensions no in-memory matrix can have panic.
func Encode(m *matrix.CSR) []byte {
	rows, nnz := int64(m.Rows), int64(m.NNZ())
	l, err := layoutFor(rows, int64(m.Cols), nnz)
	if err != nil {
		panic(fmt.Sprintf("csr: Encode: %v", err))
	}
	buf := make([]byte, l.total)
	rowPtr := buf[l.rowPtrOff:l.colIdxOff]
	colIdx := buf[l.colIdxOff : l.colIdxOff+4*nnz]
	val := buf[l.valOff:]
	for i, p := range m.RowPtr[:rows+1] {
		binary.LittleEndian.PutUint64(rowPtr[8*i:], uint64(p))
	}
	for i, c := range m.ColIdx {
		binary.LittleEndian.PutUint32(colIdx[4*i:], uint32(c))
	}
	for i, v := range m.Val {
		binary.LittleEndian.PutUint64(val[8*i:], math.Float64bits(v))
	}
	hdr := encodeHeader(header{
		version:   Version,
		rows:      rows,
		cols:      int64(m.Cols),
		nnz:       nnz,
		crcRowPtr: crc32.ChecksumIEEE(rowPtr),
		crcColIdx: crc32.ChecksumIEEE(colIdx),
		crcVal:    crc32.ChecksumIEEE(val),
	})
	copy(buf, hdr[:])
	return buf
}

// Decode parses a complete in-memory (or memory-mapped) binary CSR
// image and returns it as a matrix. On little-endian hosts the
// returned matrix's slices alias data (zero-copy); the caller must
// keep data alive and unmodified for the matrix's lifetime. All four
// CRCs and the full CSR structural invariants are verified: a
// truncated, corrupted or hostile image returns an error wrapping
// ErrFormat without panicking and without allocating beyond the input.
func Decode(data []byte) (*matrix.CSR, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	l, err := layoutFor(h.rows, h.cols, h.nnz)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != l.total {
		return nil, fmt.Errorf("%w: file is %d bytes, header claims %d", ErrFormat, len(data), l.total)
	}
	sections := []struct {
		name     string
		off, len int64
		want     uint32
	}{
		{"row-pointer", l.rowPtrOff, 8 * (h.rows + 1), h.crcRowPtr},
		{"column-index", l.colIdxOff, 4 * h.nnz, h.crcColIdx},
		{"value", l.valOff, 8 * h.nnz, h.crcVal},
	}
	for _, s := range sections {
		if got := crc32.ChecksumIEEE(data[s.off : s.off+s.len]); got != s.want {
			return nil, fmt.Errorf("%w: %s section checksum mismatch (got %08x, want %08x)", ErrFormat, s.name, got, s.want)
		}
	}
	m := &matrix.CSR{Rows: int(h.rows), Cols: int(h.cols)}
	if hostLittleEndian {
		m.RowPtr = unsafe.Slice((*int64)(unsafe.Pointer(&data[l.rowPtrOff])), h.rows+1)
		if h.nnz > 0 {
			m.ColIdx = unsafe.Slice((*int32)(unsafe.Pointer(&data[l.colIdxOff])), h.nnz)
			m.Val = unsafe.Slice((*float64)(unsafe.Pointer(&data[l.valOff])), h.nnz)
		}
	} else {
		m.RowPtr = make([]int64, h.rows+1)
		for i := range m.RowPtr {
			m.RowPtr[i] = int64(binary.LittleEndian.Uint64(data[l.rowPtrOff+8*int64(i):]))
		}
		m.ColIdx = make([]int32, h.nnz)
		m.Val = make([]float64, h.nnz)
		for i := int64(0); i < h.nnz; i++ {
			m.ColIdx[i] = int32(binary.LittleEndian.Uint32(data[l.colIdxOff+4*i:]))
			m.Val[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[l.valOff+8*i:]))
		}
	}
	// Full structural validation (monotone row pointers, sorted in-range
	// column indices, finite values): the kernels index by these without
	// bounds checks of their own, so a hostile file must die here.
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if int64(len(m.ColIdx)) != h.nnz || m.RowPtr[h.rows] != h.nnz {
		return nil, fmt.Errorf("%w: row pointers end at %d, header claims nnz=%d", ErrFormat, m.RowPtr[h.rows], h.nnz)
	}
	return m, nil
}

// FileBytes returns the on-disk size of a binary CSR file holding a
// rows×anything matrix with nnz entries (admission's disk-budget
// arithmetic).
func FileBytes(rows int, nnz int64) int64 {
	l, err := layoutFor(int64(rows), 0, nnz)
	if err != nil {
		return math.MaxInt64
	}
	return l.total
}
