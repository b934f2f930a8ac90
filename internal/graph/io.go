package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"symcluster/internal/matrix"
)

// ErrInputTooLarge marks inputs rejected for size rather than syntax —
// a single line longer than the scanner buffer allows. HTTP handlers
// map it to 413 Request Entity Too Large instead of 400.
var ErrInputTooLarge = errors.New("graph: input too large")

// MaxLineBytes bounds one edge-list line. Any legitimate
// "src dst weight" record fits in well under a hundred bytes; a longer
// line is either corruption or an attempt to exhaust memory. Exported
// so the streaming ingester (internal/csr) applies the same cap to
// chunked uploads.
const MaxLineBytes = 16 * 1024 * 1024

const maxLineBytes = MaxLineBytes

// scanErr converts a scanner failure into a caller-facing error,
// surfacing oversized lines as ErrInputTooLarge.
func scanErr(what string, err error) error {
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("%w: %s line exceeds %d bytes", ErrInputTooLarge, what, maxLineBytes)
	}
	return fmt.Errorf("graph: reading %s: %w", what, err)
}

// The edge-list text format, one record per line:
//
//	# comment
//	src dst [weight]
//
// Node ids are non-negative integers; weight defaults to 1. Blank lines
// are skipped. This is the interchange format of cmd/expgen and
// cmd/symcluster.

// WriteEdgeList writes g in edge-list format.
func WriteEdgeList(w io.Writer, g *Directed) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# directed graph: %d nodes, %d edges\n", g.N(), g.M())
	for i := 0; i < g.N(); i++ {
		cols, vals := g.Adj.Row(i)
		for k, c := range cols {
			if vals[k] == 1 {
				fmt.Fprintf(bw, "%d %d\n", i, c)
			} else {
				fmt.Fprintf(bw, "%d %d %g\n", i, c, vals[k])
			}
		}
	}
	return bw.Flush()
}

// maxNodeID is the largest node id the edge-list format accepts: the
// node count is one more, and matrices index columns with an int32.
const maxNodeID = math.MaxInt32 - 1

// ParseEdgeLine parses one line of the edge-list format, handed over as
// the reader's bytes: nothing is copied or allocated for a well-formed
// record. It returns skip=true for blank lines and comments. Malformed
// records — non-integer or negative ids, ids above maxNodeID, weights
// that are NaN, infinite or negative — are rejected with the given line
// number in the error. ReadEdgeList and the streaming ingester
// (internal/csr) share this parser so their accepted grammars can never
// drift apart.
//
// The common record, two plain integers, is read by parseIDPair; every
// other line — and so every skip and every error — is parseEdgeLine's.
func ParseEdgeLine(lineNo int, line []byte) (u, v int, w float64, skip bool, err error) {
	if u, v, ok := parseIDPair(line); ok {
		return u, v, 1, false, nil
	}
	return parseEdgeLine(lineNo, line)
}

// maxFastDigits keeps parseIDPair's accumulation inside an int64.
const maxFastDigits = 18

// parseIDPair recognises exactly `ws* digits ws+ digits ws*` — ws being
// the ASCII bytes unicode.IsSpace accepts, digits at most maxFastDigits
// long, both values at most maxNodeID — and declines everything else: a
// third field, a sign, a comment, a blank line, a byte ≥ 0x80. On what
// it accepts it returns what parseEdgeLine would, so declining is always
// safe and accepting never changes an answer (FuzzParseEdgeLine).
func parseIDPair(line []byte) (u, v int, ok bool) {
	i := skipASCIISpace(line, 0)
	a, i, ok := asciiDigits(line, i)
	if !ok {
		return 0, 0, false
	}
	j := skipASCIISpace(line, i)
	if j == i {
		return 0, 0, false
	}
	b, j, ok := asciiDigits(line, j)
	if !ok || skipASCIISpace(line, j) != len(line) || a > maxNodeID || b > maxNodeID {
		return 0, 0, false
	}
	return int(a), int(b), true
}

// skipASCIISpace returns the index of the first byte at or after i that
// is not ' ', \t, \n, \v, \f or \r.
func skipASCIISpace(line []byte, i int) int {
	for i < len(line) && (line[i] == ' ' || line[i]-'\t' < 5) {
		i++
	}
	return i
}

// asciiDigits reads the run of decimal digits at i: its value, where it
// ends, and whether it is 1 to maxFastDigits long.
func asciiDigits(line []byte, i int) (val int64, end int, ok bool) {
	for end = i; end < len(line); end++ {
		d := line[end] - '0'
		if d > 9 {
			break
		}
		val = val*10 + int64(d)
	}
	return val, end, end > i && end-i <= maxFastDigits
}

// parseEdgeLine is the whole grammar, one field at a time.
func parseEdgeLine(lineNo int, line []byte) (u, v int, w float64, skip bool, err error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return 0, 0, 0, true, nil
	}
	// At most three whitespace-separated fields (strings.Fields' notion
	// of whitespace); anything after the third makes the record malformed.
	var fields [3][]byte
	n, rest := 0, line
	for ; n < len(fields) && len(rest) > 0; n++ {
		end := bytes.IndexFunc(rest, unicode.IsSpace)
		if end < 0 {
			end = len(rest)
		}
		fields[n], rest = rest[:end], bytes.TrimLeftFunc(rest[end:], unicode.IsSpace)
	}
	if n < 2 || len(rest) > 0 {
		return 0, 0, 0, false, fmt.Errorf("graph: line %d: want 'src dst [weight]', got %q", lineNo, line)
	}
	// strconv keeps its argument from escaping, so the conversions stay
	// on the stack.
	u, err = strconv.Atoi(string(fields[0]))
	if err != nil || u < 0 {
		return 0, 0, 0, false, fmt.Errorf("graph: line %d: bad source id %q", lineNo, fields[0])
	}
	if u > maxNodeID {
		return 0, 0, 0, false, fmt.Errorf("graph: line %d: source id %d above the largest supported, %d", lineNo, u, maxNodeID)
	}
	v, err = strconv.Atoi(string(fields[1]))
	if err != nil || v < 0 {
		return 0, 0, 0, false, fmt.Errorf("graph: line %d: bad destination id %q", lineNo, fields[1])
	}
	if v > maxNodeID {
		return 0, 0, 0, false, fmt.Errorf("graph: line %d: destination id %d above the largest supported, %d", lineNo, v, maxNodeID)
	}
	w = 1.0
	if n == 3 {
		w, err = strconv.ParseFloat(string(fields[2]), 64)
		if err != nil {
			return 0, 0, 0, false, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
		}
		// NaN poisons every downstream kernel silently, infinities
		// overflow the products, and the similarity semantics of the
		// symmetrizations assume non-negative weights — reject all
		// three here, with the line, rather than deep in a kernel.
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return 0, 0, 0, false, fmt.Errorf("graph: line %d: weight %q must be a finite non-negative number", lineNo, fields[2])
		}
	}
	return u, v, w, false, nil
}

// CheckIDDensity guards against absurdly sparse id spaces: a single
// stray id like 999999999 would otherwise allocate gigabytes of row
// pointers. Ids must be reasonably dense; renumber the input if they
// are not. edges is the number of parsed records (before dedup).
func CheckIDDensity(maxID int, edges int64) error {
	if maxID >= 0 && int64(maxID)+1 > 1000*edges+1024 {
		return fmt.Errorf("graph: node id %d too large for %d edges; renumber ids densely", maxID, edges)
	}
	return nil
}

// CheckIDBudget is CheckIDDensity on a complete input, and one bound
// more for a caller with a byte budget: edges records name at most
// 2·edges nodes, so the rows past that are rows nothing uses, and
// spareRows is how many of those the caller will pay for (symclusterd:
// its job byte budget in 8-byte row pointers). Over it the input is
// ErrInputTooLarge, not malformed.
func CheckIDBudget(maxID int, edges, spareRows int64) error {
	if err := CheckIDDensity(maxID, edges); err != nil {
		return err
	}
	if rows := int64(maxID) + 1; rows > 2*edges+spareRows {
		return fmt.Errorf("%w: node id %d asks for %d rows, %d edges and a budget of %d unused rows allow %d; renumber ids densely",
			ErrInputTooLarge, maxID, rows, edges, spareRows, 2*edges+spareRows)
	}
	return nil
}

// ReadEdgeList parses an edge-list stream into a directed graph. The
// node count is one greater than the largest id seen; duplicate edges
// have their weights summed. Malformed records — non-integer or
// negative ids, weights that are NaN, infinite or negative — are
// rejected with the offending line number; lines longer than the
// scanner buffer are rejected with ErrInputTooLarge. The library has no
// byte budget: it spares every row an id can name.
func ReadEdgeList(r io.Reader) (*Directed, error) { return ReadEdgeListBudget(r, maxNodeID+1) }

// ReadEdgeListBudget is ReadEdgeList with the id space held to
// CheckIDBudget(spareRows) as well, before a row array exists.
func ReadEdgeListBudget(r io.Reader, spareRows int64) (*Directed, error) {
	// One pass: records go straight into the builder, whose shape grows
	// with the largest id seen.
	b := matrix.NewBuilder(0, 0)
	maxID := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		u, v, w, skip, err := ParseEdgeLine(lineNo, sc.Bytes())
		if err != nil {
			return nil, err
		}
		if skip {
			continue
		}
		if m := max(u, v); m > maxID {
			maxID = m
			b.Resize(m+1, m+1)
		}
		b.Add(u, v, w)
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr("edge list", err)
	}
	if err := CheckIDBudget(maxID, int64(b.Len()), spareRows); err != nil {
		return nil, err
	}
	return NewDirected(b.Build(), nil)
}

// WriteLabels writes one label per line, in node order.
func WriteLabels(w io.Writer, labels []string) error {
	bw := bufio.NewWriter(w)
	for _, l := range labels {
		if strings.ContainsRune(l, '\n') {
			return fmt.Errorf("graph: label %q contains newline", l)
		}
		fmt.Fprintln(bw, l)
	}
	return bw.Flush()
}

// ReadLabels reads one label per line.
func ReadLabels(r io.Reader) ([]string, error) {
	var labels []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		labels = append(labels, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr("labels", err)
	}
	return labels, nil
}

// WriteGroundTruth writes overlapping ground-truth categories, one line
// per node: space-separated category ids, or an empty line for an
// unlabelled node (the paper's datasets leave 20–35% of nodes
// unlabelled).
func WriteGroundTruth(w io.Writer, categories [][]int) error {
	bw := bufio.NewWriter(w)
	for _, cats := range categories {
		parts := make([]string, len(cats))
		for i, c := range cats {
			parts[i] = strconv.Itoa(c)
		}
		fmt.Fprintln(bw, strings.Join(parts, " "))
	}
	return bw.Flush()
}

// ReadGroundTruth parses the format written by WriteGroundTruth.
func ReadGroundTruth(r io.Reader) ([][]int, error) {
	var out [][]int
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			out = append(out, nil)
			continue
		}
		fields := strings.Fields(line)
		cats := make([]int, 0, len(fields))
		for _, f := range fields {
			c, err := strconv.Atoi(f)
			if err != nil || c < 0 {
				return nil, fmt.Errorf("graph: line %d: bad category id %q", lineNo, f)
			}
			cats = append(cats, c)
		}
		sort.Ints(cats)
		out = append(out, cats)
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr("ground truth", err)
	}
	return out, nil
}
