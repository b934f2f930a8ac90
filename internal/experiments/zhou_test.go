package experiments

import (
	"context"
	"testing"
)

func TestZhouBaselineCompletes(t *testing.T) {
	s, err := ZhouBaseline(context.Background(), datasets(t).Cora, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Points[0]
	if p.Clusters < 2 || p.AvgF <= 5 {
		t.Fatalf("zhou baseline degenerate: %+v", p)
	}
}
