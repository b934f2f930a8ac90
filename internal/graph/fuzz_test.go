package graph

import (
	"bytes"
	"strings"
	"testing"

	"symcluster/internal/matrix"
)

// FuzzReadEdgeList checks that arbitrary text either parses into a
// structurally valid graph or fails cleanly — exactly as the
// strings.Fields-based oracle in io_test.go decides — and that valid
// parses round-trip through WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2 3.5\n# comment\n\n2 0\n")
	f.Add("0 0 1e10\n")
	f.Add("5 5\n")
	f.Add("not a graph")
	f.Add("1 2 -3\n")
	f.Add("999999 0\n")
	f.Add("0 1 NaN\n")
	f.Add("0 1 +Inf\n")
	f.Add("0 1 -Inf\n")
	f.Add("0 1 1e400\n")
	f.Add("0 1 0\n")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			t.Skip()
		}
		checkAgainstOracle(t, input)
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return // clean rejection is fine
		}
		if err := g.Adj.Validate(); err != nil {
			t.Fatalf("parsed graph fails validation: %v", err)
		}
		// Round trip: write and re-read; adjacency must be identical.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write failed on valid graph: %v", err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		// The round trip may shrink the node count when trailing
		// isolated nodes existed only implicitly; compare the stored
		// entries instead.
		if back.M() != g.M() {
			t.Fatalf("edge count changed: %d -> %d", g.M(), back.M())
		}
		for i := 0; i < back.N(); i++ {
			cols, vals := back.Adj.Row(i)
			for k, c := range cols {
				if g.Adj.At(i, int(c)) != vals[k] {
					t.Fatalf("weight (%d,%d) changed", i, c)
				}
			}
		}
	})
}

// FuzzParseEdgeLine pins "declines, never disagrees": on any bytes the
// exported parser — the two-integer fast path in front — and the general
// parser called directly return the same record, the same skip verdict
// and the same error text.
func FuzzParseEdgeLine(f *testing.F) {
	for _, line := range []string{
		"0 1", " \t12  34\r", "1\v2", "1\f2", "1\r2", "1\n2", "1\u00a02", "1\u20282", "1\u2028 2", "1\x852", "1\xa02",
		"+1 2", "-0 1", "1 -0", "007 08", "1 2 3", "1 2 3 4", "1 2 0x1p-2", "1 2 NaN", "1 2 ", "1 2 #", "# 1 2", "#", "", " ", "1", "1 ",
		"999999999999999999 1", "1 999999999999999999", "1000000000000000000 1", "9223372036854775807 1", "9223372036854775808 1",
		"0000000000000000000001 2", "2147483646 2147483646", "2147483647 0", "0 2147483647", "2147483648 1 1",
		"1 2\xff", "\xff\xfe 1", "1\xc2 2", "1 2\x00", "1_0 2", "1e3 2", "0x10 2", "１ ２",
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		u, v, w, skip, err := ParseEdgeLine(3, line)
		gu, gv, gw, gskip, gerr := parseEdgeLine(3, line)
		if u != gu || v != gv || w != gw || skip != gskip || (err == nil) != (gerr == nil) || (err != nil && err.Error() != gerr.Error()) {
			t.Fatalf("line %q: ParseEdgeLine = (%d, %d, %v, %v, %v), the general parser (%d, %d, %v, %v, %v)",
				line, u, v, w, skip, err, gu, gv, gw, gskip, gerr)
		}
		if err == nil && !skip && (u < 0 || v < 0 || u > maxNodeID || v > maxNodeID) {
			t.Fatalf("line %q: accepted ids %d, %d outside [0, %d]", line, u, v, maxNodeID)
		}
	})
}

// FuzzReadGroundTruth checks the ground-truth parser never produces an
// invalid structure.
func FuzzReadGroundTruth(f *testing.F) {
	f.Add("0 1\n\n2\n")
	f.Add("7\n7\n7\n")
	f.Add("x\n")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			t.Skip()
		}
		cats, err := ReadGroundTruth(strings.NewReader(input))
		if err != nil {
			return
		}
		for i, cs := range cats {
			for _, c := range cs {
				if c < 0 {
					t.Fatalf("node %d parsed negative category", i)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteGroundTruth(&buf, cats); err != nil {
			t.Fatalf("write failed: %v", err)
		}
	})
}

// FuzzBuilderRoundTrip checks that arbitrary triplets assemble into a
// valid CSR matrix whose entries equal the summed duplicates.
func FuzzBuilderRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		const n = 17
		b := matrix.NewBuilder(n, n)
		type key struct{ r, c int }
		want := map[key]float64{}
		for i := 0; i+2 < len(data); i += 3 {
			r := int(data[i]) % n
			c := int(data[i+1]) % n
			v := float64(int8(data[i+2]))
			b.Add(r, c, v)
			want[key{r, c}] += v
		}
		m := b.Build()
		if err := m.Validate(); err != nil {
			t.Fatalf("built matrix invalid: %v", err)
		}
		for k, v := range want {
			if got := m.At(k.r, k.c); got != v {
				t.Fatalf("entry (%d,%d) = %v, want %v", k.r, k.c, got, v)
			}
		}
	})
}
