package csr

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"symcluster/internal/matrix"
	"symcluster/internal/obs"
)

// mappedBytes is the process-wide gauge of bytes currently
// memory-mapped through Open, surfaced as symclusterd_csr_mapped_bytes.
var mappedBytes atomic.Int64

// MappedBytes reports the bytes of graph data currently memory-mapped
// by this process.
func MappedBytes() int64 { return mappedBytes.Load() }

// Mapped is an open binary CSR file. On little-endian hosts with mmap
// support the matrix View aliases the mapped file directly: reading a
// row touches file-backed pages the OS loads on demand and evicts
// under pressure, so arbitrarily large graphs cost bounded resident
// memory. Close unmaps; the View (and every row slice taken from it)
// is invalid afterwards.
type Mapped struct {
	path string
	data []byte // nil when the fallback decode copied to the heap
	m    *matrix.CSR
	size int64
}

// Open maps (or, on unsupported platforms, reads) the binary CSR file
// at path, verifying its CRCs and structural invariants. It opens a
// "csr.mmap" span and records the mapped size.
func Open(ctx context.Context, path string) (mp *Mapped, err error) {
	_, sp := obs.StartSpan(ctx, "csr.mmap", obs.A("file", filepath.Base(path)))
	defer func() { sp.EndErr(err) }()

	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csr: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("csr: %w", err)
	}
	size := st.Size()
	if size < headerSize {
		return nil, fmt.Errorf("%w: %s is %d bytes, shorter than the %d-byte header", ErrFormat, path, size, headerSize)
	}
	if size > int64(math.MaxInt) {
		return nil, fmt.Errorf("%w: %s is too large to map on this platform", ErrFormat, path)
	}

	if mmapSupported && hostLittleEndian {
		data, merr := mmapFile(f, size)
		if merr != nil {
			return nil, fmt.Errorf("csr: mapping %s: %w", path, merr)
		}
		m, derr := Decode(data)
		if derr != nil {
			munmapFile(data)
			return nil, fmt.Errorf("csr: %s: %w", path, derr)
		}
		mappedBytes.Add(size)
		sp.SetAttr("bytes", size)
		sp.SetAttr("zero_copy", true)
		return &Mapped{path: path, data: data, m: m, size: size}, nil
	}

	// Fallback: no mmap or a big-endian host. Correct, but the graph is
	// resident; documented degradation, not an error.
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("csr: %w", err)
	}
	m, derr := Decode(data)
	if derr != nil {
		return nil, fmt.Errorf("csr: %s: %w", path, derr)
	}
	if hostLittleEndian {
		// The decode zero-copied over the heap buffer; keep it alive via m.
		data = nil
	}
	sp.SetAttr("bytes", size)
	sp.SetAttr("zero_copy", false)
	return &Mapped{path: path, m: m, size: size}, nil
}

// View returns the matrix backed by the mapped file. The view and any
// row slices taken from it are invalidated by Close.
func (mp *Mapped) View() *matrix.CSR { return mp.m }

// Path returns the file backing this mapping.
func (mp *Mapped) Path() string { return mp.path }

// Bytes returns the mapped file size.
func (mp *Mapped) Bytes() int64 { return mp.size }

// Close unmaps the file. Safe to call twice.
func (mp *Mapped) Close() error {
	if mp.data == nil {
		return nil
	}
	data := mp.data
	mp.data = nil
	mp.m = nil
	mappedBytes.Add(-mp.size)
	return munmapFile(data)
}
