package spectral

import (
	"context"
	"symcluster/internal/matrix"
	"symcluster/internal/walk"
)

func pageRankForTest(a *matrix.CSR) ([]float64, error) {
	return walk.PageRankCtx(context.Background(), a, walk.DefaultTeleport)
}

func mustTransition(a *matrix.CSR) *matrix.CSR {
	return walk.TransitionMatrix(a)
}
