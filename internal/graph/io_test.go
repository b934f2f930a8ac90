package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"symcluster/internal/matrix"
)

// oracleParseEdgeLine is ParseEdgeLine as it stood while it took the
// line as a string and split it with strings.Fields, kept as the grammar
// the allocation-free parser is held to — verbatim but for the bound on
// ids, which postdates it.
func oracleParseEdgeLine(lineNo int, line string) (u, v int, w float64, skip bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return 0, 0, 0, true, nil
	}
	fields := strings.Fields(line)
	if len(fields) != 2 && len(fields) != 3 {
		return 0, 0, 0, false, fmt.Errorf("graph: line %d: want 'src dst [weight]', got %q", lineNo, line)
	}
	u, err = strconv.Atoi(fields[0])
	if err != nil || u < 0 {
		return 0, 0, 0, false, fmt.Errorf("graph: line %d: bad source id %q", lineNo, fields[0])
	}
	if u > math.MaxInt32-1 {
		return 0, 0, 0, false, fmt.Errorf("graph: line %d: source id %d above the largest supported, %d", lineNo, u, math.MaxInt32-1)
	}
	v, err = strconv.Atoi(fields[1])
	if err != nil || v < 0 {
		return 0, 0, 0, false, fmt.Errorf("graph: line %d: bad destination id %q", lineNo, fields[1])
	}
	if v > math.MaxInt32-1 {
		return 0, 0, 0, false, fmt.Errorf("graph: line %d: destination id %d above the largest supported, %d", lineNo, v, math.MaxInt32-1)
	}
	w = 1.0
	if len(fields) == 3 {
		w, err = strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return 0, 0, 0, false, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
		}
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return 0, 0, 0, false, fmt.Errorf("graph: line %d: weight %q must be a finite non-negative number", lineNo, fields[2])
		}
	}
	return u, v, w, false, nil
}

// oracleReadEdgeList is the two-pass reader the oracle parser came
// from: stage every record, size the builder from the largest id, copy.
func oracleReadEdgeList(text string) (*Directed, error) {
	type triplet struct {
		u, v int
		w    float64
	}
	var edges []triplet
	maxID := -1
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		u, v, w, skip, err := oracleParseEdgeLine(lineNo, sc.Text())
		if err != nil {
			return nil, err
		}
		if skip {
			continue
		}
		maxID = max(maxID, u, v)
		edges = append(edges, triplet{u, v, w})
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr("edge list", err)
	}
	if err := CheckIDDensity(maxID, int64(len(edges))); err != nil {
		return nil, err
	}
	b := matrix.NewBuilder(maxID+1, maxID+1)
	for _, e := range edges {
		b.Add(e.u, e.v, e.w)
	}
	return NewDirected(b.Build(), nil)
}

// checkAgainstOracle holds ReadEdgeList to the oracle on one input: the
// same verdict, on rejection the same error text (line number
// included), on acceptance the same graph id.
func checkAgainstOracle(t *testing.T, input string) {
	t.Helper()
	want, wantErr := oracleReadEdgeList(input)
	got, err := ReadEdgeList(strings.NewReader(input))
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("input %q: err = %v, oracle %v", input, err, wantErr)
	}
	if err == nil && (got.N() != want.N() || got.Fingerprint() != want.Fingerprint()) {
		t.Fatalf("input %q: %d nodes, fingerprint %016x; oracle %d nodes, %016x",
			input, got.N(), got.Fingerprint(), want.N(), want.Fingerprint())
	}
}

// TestReadEdgeListMatchesOracle is the grammar table; FuzzReadEdgeList
// runs the same check over its corpus.
func TestReadEdgeListMatchesOracle(t *testing.T) {
	for _, in := range []string{
		"",
		"# only a comment",
		"  # indented comment\n\n \t \n0 1\n",
		"0 1\r\n1 2 3.5\r\n",         // CRLF
		"0\t1\t2.5\n1\t\t0\n",        // tabs, runs of tabs
		"\t 3   4  \n",               // leading, trailing and repeated blanks
		"0\u00a01\n",                 // NBSP is not a separator
		"0\u20031\u2003 2\n",         // EM SPACE is one
		"0\v1\f2\n",                  // vertical tab, form feed
		"0 1\xff\n",                  // invalid UTF-8 inside a field
		"\xff\n",                     // invalid UTF-8 alone
		"+1 +2 +3\n",                 // leading plus
		"-0 1\n",                     // negative zero id
		"0 -1\n1 1\n",                // negative destination, line 1
		"1 1\n\n# c\n0x10 1\n",       // hex id, line 4
		"1_0 1\n",                    // underscore id
		"99999999999999999999 0\n",   // id overflows int
		"0 99999999999999999999\n",   // destination overflows int
		"999999999 0\n",              // too sparse an id space
		"2147483646 0\n",             // the largest id: parsed, then too sparse
		"2147483647 0\n",             // one past it
		"0 2147483648 1\n",           // 2³¹ as a destination, weighted
		"999999999999999999 0\n",     // 18 digits: the fast path's longest
		"0 1000000000000000000\n",    // 19 digits
		"0000000000000000000007 1\n", // zeros past 18 digits
		"007 08\n",                   // leading zeros
		"0 1 NaN\n", "0 1 nan\n", "0 1 Inf\n", "0 1 +Inf\n", "0 1 -Inf\n", "0 1 infinity\n",
		"0 1 1e400\n", "0 1 -2.5\n", "0 1 -0\n", "0 1 0x1p-2\n", "0 1 0x10\n", "0 1 1_0\n",
		"0 1 .5\n", "0 1 5.\n", "0 1 1e-320\n", "0 1 weight\n",
		"0\n", "0 1 2 3\n", "0 1 2 3 4\n", "a 1\n", "0 b\n",
		"0 1 2\n0 1 3\n0 1 0.25\n", // duplicates summed in input order
		"0 1 1\n0 1 0\n2 2 0\n",    // explicit zeros dropped
		"5 5\n0 0 1e10\n",
		"0 1\n1 0",                               // no trailing newline
		"0 1 " + strings.Repeat("0", 40) + "1\n", // fields past strconv's 32-byte stack buffer
		strings.Repeat("7", 40) + " 1\n",
	} {
		checkAgainstOracle(t, in)
	}
	// An over-long line is rejected for size by both, not parsed.
	long := "0 1\n# " + strings.Repeat("x", maxLineBytes+1)
	checkAgainstOracle(t, long)
	if _, err := ReadEdgeList(strings.NewReader(long)); !errors.Is(err, ErrInputTooLarge) {
		t.Fatalf("over-long line: err = %v, want ErrInputTooLarge", err)
	}
}

// TestReadEdgeListAllocationsDoNotScale: parsing allocates per doubling
// of the builder's arrays, never per line — ten times the edges cost a
// few dozen allocations more, not a hundred thousand.
func TestReadEdgeListAllocationsDoNotScale(t *testing.T) {
	text := func(edges int) []byte {
		var buf bytes.Buffer
		for e := 0; e < edges; e++ {
			fmt.Fprintf(&buf, "%d %d %d.5\n", e%1000, (e*7919)%1000, e%9)
		}
		return buf.Bytes()
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := ReadEdgeList(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(text(10_000)), allocs(text(100_000))
	if large > small+40 {
		t.Fatalf("%v allocations for 100k edges against %v for 10k: the count grows with the lines", large, small)
	}
	t.Logf("allocations: %v for 10k edges, %v for 100k", small, large)
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := directedFromDense(t, [][]float64{
		{0, 1, 2.5},
		{0, 0, 0},
		{1, 0, 0},
	})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(g.Adj, back.Adj, 0) {
		t.Fatalf("round trip changed graph:\n%v\nvs\n%v", g.Adj.ToDense(), back.Adj.ToDense())
	}
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	in := "# header\n\n0 1\n1 2 3.5\n\n# trailing\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.Adj.At(1, 2) != 3.5 {
		t.Fatalf("weight = %v", g.Adj.At(1, 2))
	}
}

func TestReadEdgeListDuplicatesSummed(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 2\n0 1 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Adj.At(0, 1) != 5 {
		t.Fatalf("duplicate edge weight = %v, want 5", g.Adj.At(0, 1))
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",          // too few fields
		"0 1 2 3\n",    // too many fields
		"a 1\n",        // bad source
		"0 b\n",        // bad destination
		"-1 0\n",       // negative id
		"0 1 weight\n", // bad weight
		"0 1 NaN\n",    // NaN weight
		"0 1 nan\n",    // NaN weight, lower case
		"0 1 Inf\n",    // infinite weight
		"0 1 +Inf\n",   // infinite weight, explicit sign
		"0 1 -Inf\n",   // negative infinity
		"0 1 1e400\n",  // overflows to +Inf
		"0 1 -2.5\n",   // negative weight
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted malformed input %q", in)
		}
	}
}

// TestEdgeIDBound: an id of 2³¹−1 or more cannot be a row of an int32-
// indexed matrix (the node count is id+1). It used to be parsed, pass
// CheckIDDensity once enough ordinary records preceded it — 2.2 M do —
// and wrap in Builder.Add or ask Build for a 16 GiB row-pointer array.
// Both parsers refuse it, naming the line.
func TestEdgeIDBound(t *testing.T) {
	for _, tc := range []struct {
		line string
		want string // "" = accepted
	}{
		{"2147483646 5", ""},
		{"5 2147483646 2.5", ""},
		{"5 2147483647", "graph: line 7: destination id 2147483647 above the largest supported, 2147483646"},
		{"5 2147483648", "graph: line 7: destination id 2147483648 above the largest supported, 2147483646"},
		{"2147483648 5", "graph: line 7: source id 2147483648 above the largest supported, 2147483646"},
		{"4294967296 5 1", "graph: line 7: source id 4294967296 above the largest supported, 2147483646"},
		{"5 999999999999999999 0.5", "graph: line 7: destination id 999999999999999999 above the largest supported, 2147483646"},
	} {
		_, _, _, _, err := ParseEdgeLine(7, []byte(tc.line))
		if got := fmt.Sprint(err); (tc.want == "") != (err == nil) || (err != nil && got != tc.want) {
			t.Errorf("ParseEdgeLine(%q): err = %v, want %q", tc.line, err, tc.want)
		}
	}
	// Through the reader, behind enough records that the density check
	// alone would let the id through.
	var text bytes.Buffer
	for e := 0; e < 2_200_000; e++ {
		text.WriteString("1 2\n")
	}
	text.WriteString("5 2147483648\n")
	_, err := ReadEdgeList(&text)
	if err == nil || !strings.Contains(err.Error(), "line 2200001: destination id 2147483648 above the largest supported") {
		t.Fatalf("ReadEdgeList: err = %v, want the id refused at line 2200001", err)
	}
}

// TestCheckIDBudget: both bounds on every call — the density constant
// whatever the budget (an id inside the budget is still malformed
// input), the budget's ErrInputTooLarge on top of it.
func TestCheckIDBudget(t *testing.T) {
	for _, tc := range []struct {
		maxID        int
		edges, spare int64
		want         string // "" = accepted
	}{
		{3000, 3, 1 << 29, ""},
		{3000, 3, 2995, ""},
		{3000, 3, 2994, "input too large"},
		{99_999_999, 1, 1 << 29, "too large for 1 edges"},
		{99_999_999, 1, maxNodeID + 1, "too large for 1 edges"},
		{maxNodeID, 2_200_001, 1 << 29, "input too large"},
		{maxNodeID, 2_200_001, maxNodeID + 1, ""},
	} {
		err := CheckIDBudget(tc.maxID, tc.edges, tc.spare)
		if (tc.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.want)) ||
			errors.Is(err, ErrInputTooLarge) != (tc.want == "input too large") {
			t.Errorf("CheckIDBudget(%d, %d, %d) = %v, want %q", tc.maxID, tc.edges, tc.spare, err, tc.want)
		}
	}
}

func TestReadEdgeListErrorNamesLine(t *testing.T) {
	_, err := ReadEdgeList(strings.NewReader("0 1\n# c\n2 3 NaN\n"))
	if err == nil {
		t.Fatal("accepted NaN weight")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not name line 3", err)
	}
}

func TestReadEdgeListZeroWeightAllowed(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 0\n1 0 0.0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 {
		t.Fatalf("N = %d", g.N())
	}
}

func TestReadEdgeListOversizedLine(t *testing.T) {
	// A comment line longer than the scanner buffer must surface as
	// ErrInputTooLarge, not a generic parse failure, so servers can
	// answer 413 instead of 400.
	long := "# " + strings.Repeat("x", maxLineBytes+1)
	_, err := ReadEdgeList(strings.NewReader(long))
	if err == nil {
		t.Fatal("accepted oversized line")
	}
	if !errors.Is(err, ErrInputTooLarge) {
		t.Fatalf("error %v is not ErrInputTooLarge", err)
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	labels := []string{"Area", "Square mile", "Guzmania lingulata"}
	var buf bytes.Buffer
	if err := WriteLabels(&buf, labels); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLabels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(labels) {
		t.Fatalf("len = %d", len(back))
	}
	for i := range labels {
		if back[i] != labels[i] {
			t.Fatalf("label %d = %q, want %q", i, back[i], labels[i])
		}
	}
}

func TestWriteLabelsRejectsNewline(t *testing.T) {
	if err := WriteLabels(&bytes.Buffer{}, []string{"bad\nlabel"}); err == nil {
		t.Fatal("accepted label with newline")
	}
}

func TestGroundTruthRoundTrip(t *testing.T) {
	cats := [][]int{
		{0, 3},
		nil, // unlabelled node
		{7},
	}
	var buf bytes.Buffer
	if err := WriteGroundTruth(&buf, cats); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGroundTruth(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("len = %d", len(back))
	}
	if len(back[0]) != 2 || back[0][0] != 0 || back[0][1] != 3 {
		t.Fatalf("node 0 cats = %v", back[0])
	}
	if back[1] != nil {
		t.Fatalf("node 1 cats = %v, want nil", back[1])
	}
	if len(back[2]) != 1 || back[2][0] != 7 {
		t.Fatalf("node 2 cats = %v", back[2])
	}
}

func TestReadGroundTruthRejectsBadIDs(t *testing.T) {
	if _, err := ReadGroundTruth(strings.NewReader("0 x\n")); err == nil {
		t.Fatal("accepted non-numeric category")
	}
	if _, err := ReadGroundTruth(strings.NewReader("-2\n")); err == nil {
		t.Fatal("accepted negative category")
	}
}
