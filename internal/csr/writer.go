package csr

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"symcluster/internal/faultinject"
	"symcluster/internal/matrix"
	"symcluster/internal/obs"
)

// Writer streams a binary CSR file to disk with the dimensions
// declared up front, so each section is written sequentially at its
// final offset and the whole matrix never lives in memory. Entries
// arrive through Append in row-major, column-sorted order; Close
// stamps the header (with all section CRCs), fsyncs, and renames the
// temporary file into place.
type Writer struct {
	path, tmpPath string
	f             *os.File
	rows, cols    int
	nnz           int64

	rowPtrW, colIdxW, valW *sectionWriter

	written    int64 // entries appended so far
	ptrWritten int64 // row-pointer entries written so far (rowPtr[0] counts)
	lastCol    int32
	closed     bool
}

// sectionWriter buffers sequential writes to one section of the file
// while folding every byte into the section's CRC. scratch is the
// encode buffer for the fixed-width helpers — a field, not a local,
// because locals passed to the hash interface escape and would cost
// one heap allocation per appended entry.
type sectionWriter struct {
	bw      *bufio.Writer
	crc     hash.Hash32
	scratch [8]byte
}

func newSectionWriter(f *os.File, off int64) *sectionWriter {
	return &sectionWriter{
		bw:  bufio.NewWriterSize(io.NewOffsetWriter(f, off), 64*1024),
		crc: crc32.NewIEEE(),
	}
}

func (s *sectionWriter) write(p []byte) error {
	s.crc.Write(p)
	_, err := s.bw.Write(p)
	return err
}

func (s *sectionWriter) u64(v uint64) error {
	binary.LittleEndian.PutUint64(s.scratch[:], v)
	return s.write(s.scratch[:8])
}

func (s *sectionWriter) u32(v uint32) error {
	binary.LittleEndian.PutUint32(s.scratch[:4], v)
	return s.write(s.scratch[:4])
}

// NewWriter creates path's temporary sibling and returns a Writer
// expecting exactly nnz entries over rows rows. The file is
// pre-extended to its final size so the alignment padding is zero
// bytes without an explicit write.
func NewWriter(path string, rows, cols int, nnz int64) (*Writer, error) {
	l, err := layoutFor(int64(rows), int64(cols), nnz)
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("csr: creating %s: %w", tmp, err)
	}
	if err := f.Truncate(l.total); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("csr: sizing %s: %w", tmp, err)
	}
	w := &Writer{
		path:    path,
		tmpPath: tmp,
		f:       f,
		rows:    rows,
		cols:    cols,
		nnz:     nnz,
		rowPtrW: newSectionWriter(f, l.rowPtrOff),
		colIdxW: newSectionWriter(f, l.colIdxOff),
		valW:    newSectionWriter(f, l.valOff),
		lastCol: -1,
	}
	// rowPtr[0] is always zero.
	if err := w.rowPtrW.u64(0); err != nil {
		w.Abort()
		return nil, fmt.Errorf("csr: writing row pointers: %w", err)
	}
	w.ptrWritten = 1
	return w, nil
}

// row returns the row currently being filled.
func (w *Writer) row() int64 { return w.ptrWritten - 1 }

// Append adds one entry. Rows must be non-decreasing and column
// indices strictly increasing within a row (the CSR invariants);
// skipped rows are recorded as empty.
func (w *Writer) Append(row int, col int32, val float64) error {
	if w.closed {
		return fmt.Errorf("csr: Append after Close")
	}
	if row < 0 || row >= w.rows {
		return fmt.Errorf("csr: row %d out of range [0, %d)", row, w.rows)
	}
	if int64(row) < w.row() {
		return fmt.Errorf("csr: rows must be appended in order (row %d after %d)", row, w.row())
	}
	if col < 0 || int64(col) >= int64(w.cols) {
		return fmt.Errorf("csr: column %d out of range [0, %d)", col, w.cols)
	}
	if w.written >= w.nnz {
		return fmt.Errorf("csr: more than the declared %d entries", w.nnz)
	}
	for w.row() < int64(row) {
		if err := w.rowPtrW.u64(uint64(w.written)); err != nil {
			return fmt.Errorf("csr: writing row pointers: %w", err)
		}
		w.ptrWritten++
		w.lastCol = -1
	}
	if col <= w.lastCol {
		return fmt.Errorf("csr: column %d not strictly increasing after %d in row %d", col, w.lastCol, row)
	}
	w.lastCol = col
	if err := w.colIdxW.u32(uint32(col)); err != nil {
		return fmt.Errorf("csr: writing column indices: %w", err)
	}
	if err := w.valW.u64(math.Float64bits(val)); err != nil {
		return fmt.Errorf("csr: writing values: %w", err)
	}
	w.written++
	return nil
}

// AppendRow adds one whole row (cols sorted strictly increasing).
func (w *Writer) AppendRow(row int, cols []int32, vals []float64) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("csr: row %d has %d columns but %d values", row, len(cols), len(vals))
	}
	for k, c := range cols {
		if err := w.Append(row, c, vals[k]); err != nil {
			return err
		}
	}
	return nil
}

// Close finishes the remaining row pointers, verifies the declared
// entry count, writes the header, fsyncs and renames the file into
// place. It opens a "csr.write" span, which carries the file's bytes
// once it is in place, and fires the "csr.write" fault site before
// finalizing.
func (w *Writer) Close(ctx context.Context) (err error) {
	if w.closed {
		return fmt.Errorf("csr: double Close")
	}
	w.closed = true
	_, sp := obs.StartSpan(ctx, "csr.write",
		obs.A("file", filepath.Base(w.path)),
		obs.A("rows", w.rows), obs.A("nnz", w.nnz))
	defer func() {
		sp.EndErr(err)
		if err != nil {
			w.f.Close()
			os.Remove(w.tmpPath)
		}
	}()
	if err := faultinject.Fire("csr.write"); err != nil {
		return fmt.Errorf("csr: write: %w", err)
	}
	if w.written != w.nnz {
		return fmt.Errorf("csr: %d entries appended, %d declared", w.written, w.nnz)
	}
	for w.ptrWritten < int64(w.rows)+1 {
		if err := w.rowPtrW.u64(uint64(w.written)); err != nil {
			return fmt.Errorf("csr: writing row pointers: %w", err)
		}
		w.ptrWritten++
	}
	for _, s := range []*sectionWriter{w.rowPtrW, w.colIdxW, w.valW} {
		if err := s.bw.Flush(); err != nil {
			return fmt.Errorf("csr: flushing sections: %w", err)
		}
	}
	hdr := encodeHeader(header{
		version:   Version,
		rows:      int64(w.rows),
		cols:      int64(w.cols),
		nnz:       w.nnz,
		crcRowPtr: w.rowPtrW.crc.Sum32(),
		crcColIdx: w.colIdxW.crc.Sum32(),
		crcVal:    w.valW.crc.Sum32(),
	})
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("csr: writing header: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("csr: syncing %s: %w", w.tmpPath, err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("csr: closing %s: %w", w.tmpPath, err)
	}
	if err := os.Rename(w.tmpPath, w.path); err != nil {
		os.Remove(w.tmpPath)
		return fmt.Errorf("csr: renaming into place: %w", err)
	}
	syncDir(filepath.Dir(w.path))
	sp.SetAttr("bytes", FileBytes(w.rows, w.nnz))
	return nil
}

// Abort discards the temporary file. Safe after a failed Close.
func (w *Writer) Abort() {
	if w.f != nil {
		w.f.Close()
	}
	os.Remove(w.tmpPath)
	w.closed = true
}

// WriteMatrix writes an in-memory matrix to path in the binary CSR
// format (tmp + fsync + rename).
func WriteMatrix(ctx context.Context, path string, m *matrix.CSR) error {
	w, err := NewWriter(path, m.Rows, m.Cols, int64(m.NNZ()))
	if err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		if err := w.AppendRow(i, cols, vals); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Close(ctx)
}

// SaveStream writes r verbatim to dir/name, fsyncing the file before
// returning its path. It performs no validation — callers receiving a
// CSR file from elsewhere (the cluster's internal graph push) are
// expected to Open the result, which verifies every section CRC,
// before trusting a byte of it.
func SaveStream(dir, name string, r io.Reader) (string, error) {
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("csr: %w", err)
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		os.Remove(path)
		return "", fmt.Errorf("csr: saving stream: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return "", fmt.Errorf("csr: syncing stream: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return "", fmt.Errorf("csr: %w", err)
	}
	return path, nil
}

// syncDir fsyncs a directory so a just-renamed file is durable. Errors
// are ignored: the rename already happened and some filesystems refuse
// directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
