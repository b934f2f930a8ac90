package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"symcluster/internal/csr"
	"symcluster/internal/matrix"
)

// Out-of-core symmetrization: the same lowering (symmetrize in
// symmetrize.go), with the large operands — the input adjacency and
// its transpose — living in memory-mapped binary CSR files instead of
// the heap. The fused product kernels fold the diagonal scalings in,
// so no scaled factor file is ever written; they stream rows from
// file-backed pages the OS evicts under pressure, and peak resident
// memory is bounded by the (pruned) products themselves rather than by
// the input size. Results are byte-identical to the in-core path: both
// run the same kernels, and every file operation replicates its
// in-memory counterpart's value arithmetic bit-for-bit.

// ErrResidentBudget marks an out-of-core run aborted because its
// in-memory intermediates (the product matrices, which cannot live on
// disk) exceeded OutOfCoreConfig.MaxResidentBytes.
var ErrResidentBudget = errors.New("core: resident memory budget exceeded")

// OutOfCoreConfig enables the out-of-core symmetrization path when
// installed in the context with WithOutOfCore.
type OutOfCoreConfig struct {
	// InputPath is the graph's binary CSR file. When empty, the in-memory
	// adjacency is first written to scratch (correct, but the input was
	// evidently already resident).
	InputPath string
	// ScratchDir hosts intermediate files and spill runs. Empty means
	// the OS temp dir.
	ScratchDir string
	// MaxResidentBytes bounds the heap-resident intermediates (product
	// matrices and degree vectors). 0 means unlimited.
	MaxResidentBytes int64
	// SpillMemBytes is the external-sort buffer for file transposes.
	// 0 means 64 MiB.
	SpillMemBytes int64
}

type oocKey struct{}

// WithOutOfCore returns a context that routes SymmetrizeCtx through
// the out-of-core path.
func WithOutOfCore(ctx context.Context, cfg OutOfCoreConfig) context.Context {
	return context.WithValue(ctx, oocKey{}, &cfg)
}

// outOfCoreFrom returns the installed out-of-core config, or nil.
func outOfCoreFrom(ctx context.Context) *OutOfCoreConfig {
	cfg, _ := ctx.Value(oocKey{}).(*OutOfCoreConfig)
	return cfg
}

// oocState owns an out-of-core run's scratch directory and mapped
// files, and meters the heap-resident intermediates against the
// configured budget. The methods the lowering calls — augmented,
// transpose, mirror, charge — accept a nil receiver, which is the
// in-core run: operands are built on the heap and nothing is metered.
type oocState struct {
	cfg      *OutOfCoreConfig
	scratch  string
	a        *matrix.CSR // mapped view of the (possibly augmented) input
	maps     []*csr.Mapped
	resident int64
	peak     int64 // resident's high-water mark
}

func newOOCState(ctx context.Context, a *matrix.CSR, cfg *OutOfCoreConfig) (*oocState, error) {
	scratch, err := os.MkdirTemp(cfg.ScratchDir, "symcluster-ooc-*")
	if err != nil {
		return nil, fmt.Errorf("core: out-of-core scratch: %w", err)
	}
	s := &oocState{cfg: cfg, scratch: scratch}
	input := cfg.InputPath
	if input == "" {
		input = s.path("input.csr")
		if err := csr.WriteMatrix(ctx, input, a); err != nil {
			s.close()
			return nil, err
		}
	}
	view, err := s.open(ctx, input)
	if err != nil {
		s.close()
		return nil, err
	}
	s.a = view
	return s, nil
}

func (s *oocState) path(name string) string { return filepath.Join(s.scratch, name) }

// open maps a binary CSR file and tracks the handle for close.
func (s *oocState) open(ctx context.Context, path string) (*matrix.CSR, error) {
	mp, err := csr.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	s.maps = append(s.maps, mp)
	return mp.View(), nil
}

// close unmaps everything and removes the scratch directory. The
// returned matrices of the kernels never alias mapped memory (products
// are fresh heap allocations), so closing after the kernel is safe.
func (s *oocState) close() {
	for _, mp := range s.maps {
		mp.Close()
	}
	s.maps = nil
	os.RemoveAll(s.scratch)
}

// charge meters bytes of heap-resident intermediates, keeping their
// high-water mark.
func (s *oocState) charge(bytes int64) error {
	if s == nil {
		return nil
	}
	s.resident += bytes
	s.peak = max(s.peak, s.resident)
	if s.cfg.MaxResidentBytes > 0 && s.resident > s.cfg.MaxResidentBytes {
		return fmt.Errorf("%w: %d bytes of in-memory intermediates over the %d-byte budget; raise the budget or the prune threshold", ErrResidentBudget, s.resident, s.cfg.MaxResidentBytes)
	}
	return nil
}

func (s *oocState) spillMem() int64 {
	if s.cfg.SpillMemBytes > 0 {
		return s.cfg.SpillMemBytes
	}
	return 64 << 20
}

// transpose writes srcᵀ to a scratch file and maps it.
func (s *oocState) transpose(ctx context.Context, src *matrix.CSR, name string) (*matrix.CSR, error) {
	if s == nil {
		return src.Transpose(), nil
	}
	dst := s.path(name)
	if err := csr.TransposeToFile(ctx, src, s.scratch, dst, s.spillMem()); err != nil {
		return nil, err
	}
	return s.open(ctx, dst)
}

// matBytes is the heap footprint of an in-memory CSR.
func matBytes(m *matrix.CSR) int64 {
	return 8*int64(m.Rows+1) + 12*int64(m.NNZ())
}

// augmented returns a + I as a mapped scratch file.
func (s *oocState) augmented(ctx context.Context, a *matrix.CSR) (*matrix.CSR, error) {
	if s == nil {
		return a.AddIdentity(), nil
	}
	dst := s.path("aug.csr")
	if err := csr.AugmentIdentityToFile(ctx, a, dst); err != nil {
		return nil, err
	}
	return s.open(ctx, dst)
}

// mirror returns A + Aᵀ (§3.1). On the heap it goes through the
// triangle-and-mirror helper and never builds Aᵀ; out of core the
// transpose is a file and only the input-sized sum is resident.
func (s *oocState) mirror(ctx context.Context, a *matrix.CSR) (*matrix.CSR, error) {
	if s == nil {
		return matrix.AddTransposeSym(a, 1), nil
	}
	at, err := s.transpose(ctx, a, "at.csr")
	if err != nil {
		return nil, err
	}
	u := matrix.Add(a, at, 1, 1)
	if err := s.charge(matBytes(u)); err != nil {
		return nil, err
	}
	return u, nil
}
