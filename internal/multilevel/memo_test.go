package multilevel

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"symcluster/internal/matrix"
)

// star is one hub joined to n−1 leaves: a matching pairs the hub with
// one leaf and nothing else, so contraction stalls at the first level.
func star(n int) *matrix.CSR {
	b := matrix.NewBuilder(n, n)
	for i := 1; i < n; i++ {
		b.Add(0, i, 1)
		b.Add(i, 0, 1)
	}
	return b.Build()
}

// countingMemo is a memo over adj that counts what it was offered.
func countingMemo(adj *matrix.CSR) (*Memo, *int) {
	builds := new(int)
	return NewMemo(adj, func(int64) bool { *builds++; return true }), builds
}

// TestQuickMemoServesPrefix: for one seed and M2 ≥ M1, what a memo that
// kept the hierarchy built at M1 serves for M2 is, deeply, what
// CoarsenCtx builds at M2 — on random graphs, and on the stalled and
// edgeless ones, whose hierarchies stopped short of every MinNodes and
// so serve them all.
func TestQuickMemoServesPrefix(t *testing.T) {
	ctx := context.Background()
	check := func(graphSeed, seed int64, a, b uint16, shape uint8) bool {
		rng := rand.New(rand.NewSource(graphSeed))
		var adj *matrix.CSR
		switch shape % 4 {
		case 0:
			adj = star(40 + rng.Intn(100))
		case 1:
			adj = matrix.Zero(50, 50)
		default:
			adj = randomSym(rng, 100+rng.Intn(400), 3+5*rng.Float64())
		}
		m1, m2 := 1+int(a)%adj.Rows, 1+int(b)%adj.Rows
		if m1 > m2 {
			m1, m2 = m2, m1
		}
		memo, builds := countingMemo(adj)
		deep, err := memo.Coarsen(ctx, adj, Options{MinNodes: m1, Seed: seed})
		if err != nil {
			t.Error(err)
			return false
		}
		for _, ask := range []int{m2, m1, m2} {
			got, err := memo.Coarsen(ctx, adj, Options{MinNodes: ask, Seed: seed})
			want, werr := CoarsenCtx(ctx, adj, Options{MinNodes: ask, Seed: seed})
			if err != nil || werr != nil {
				t.Error(err, werr)
				return false
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shape %d, %d nodes, seed %d: kept at MinNodes %d, served depth %d for %d, built depth %d",
					shape%4, adj.Rows, seed, m1, got.Depth(), ask, want.Depth())
				return false
			}
			if got.Depth() > 1 && got.Levels[1] != deep.Levels[1] {
				t.Errorf("MinNodes %d was not served from the kept hierarchy", ask)
				return false
			}
		}
		if *builds != 1 {
			t.Errorf("%d builds, want the first only", *builds)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(27))}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoRebuildsAndReplaces: another seed, or an ask deeper than the
// kept hierarchy went, is built afresh and takes the one slot; a refused
// keep leaves the slot as it was; a nil memo and a memo bound to another
// adjacency are CoarsenCtx.
func TestMemoRebuildsAndReplaces(t *testing.T) {
	ctx := context.Background()
	adj := randomSym(rand.New(rand.NewSource(8)), 600, 6)
	memo, builds := countingMemo(adj)
	coarsen := func(m *Memo, minNodes int, seed int64) *Hierarchy {
		t.Helper()
		got, err := m.Coarsen(ctx, adj, Options{MinNodes: minNodes, Seed: seed})
		want, werr := CoarsenCtx(ctx, adj, Options{MinNodes: minNodes, Seed: seed})
		if err != nil || werr != nil {
			t.Fatal(err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MinNodes %d seed %d: memo and CoarsenCtx disagree", minNodes, seed)
		}
		return got
	}
	for step, tc := range []struct {
		minNodes int
		seed     int64
		builds   int
	}{
		{300, 1, 1}, // empty: built
		{300, 1, 1}, // hit
		{100, 1, 2}, // deeper than kept: rebuilt, replaces
		{300, 1, 2}, // prefix of the deeper one
		{100, 2, 3}, // another seed: rebuilt, replaces
		{100, 1, 4}, // seed 1 is gone: latest wins
	} {
		coarsen(memo, tc.minNodes, tc.seed)
		if *builds != tc.builds {
			t.Fatalf("step %d (MinNodes %d, seed %d): %d builds, want %d", step, tc.minNodes, tc.seed, *builds, tc.builds)
		}
	}

	offered := 0
	refusing := NewMemo(adj, func(int64) bool { offered++; return offered == 1 })
	first := coarsen(refusing, 100, 1)
	coarsen(refusing, 100, 2) // offered, refused
	if again := coarsen(refusing, 100, 1); again.Levels[1] != first.Levels[1] || offered != 2 {
		t.Fatalf("a refused keep disturbed the slot (offered %d times)", offered)
	}

	other, otherBuilds := countingMemo(ring(64))
	coarsen(nil, 100, 1)
	coarsen(other, 100, 1)
	if *otherBuilds != 0 {
		t.Fatal("a memo bound to another adjacency was offered a hierarchy")
	}
	if _, err := memo.Coarsen(ctx, matrix.Zero(2, 3), Options{}); err == nil {
		t.Fatal("accepted a non-square adjacency")
	}
}

// TestHeldBytesCountsCapacity: a hierarchy's charge is every array it
// added to the adjacency it was given, at capacity.
func TestHeldBytesCountsCapacity(t *testing.T) {
	adj := ring(256)
	h, err := CoarsenCtx(context.Background(), adj, Options{MinNodes: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(8 * 256) // level 0 adds its node weights only
	for _, lev := range h.Levels[1:] {
		want += int64(8*cap(lev.Adj.RowPtr) + 4*cap(lev.Adj.ColIdx) + 8*cap(lev.Adj.Val) + 8*cap(lev.NodeWeight) + 4*cap(lev.Map))
	}
	if got := h.HeldBytes(); got != want || got <= 8*256 {
		t.Fatalf("HeldBytes = %d, want %d", got, want)
	}
}
