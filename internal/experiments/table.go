package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"symcluster/internal/pipeline"
)

// Table is one experiment result as cells formatted once: Text renders
// them as aligned columns under a title, WriteCSV as a header record and
// one record per row, so the printed table and the exported data never
// disagree. Every tabular result has one builder below; Figure 4's bars
// and Figure 10's narrative are drawings, rendered by FormatFigure4 and
// FormatShowcase.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

func (t *Table) add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Text renders the title line, then the header and rows in columns as
// wide as their widest cell in runes: the first column left-aligned,
// the rest right-aligned, two spaces apart.
func (t Table) Text() string {
	lines := append([][]string{t.Header}, t.Rows...)
	width := make([]int, len(t.Header))
	for _, row := range lines {
		for j, c := range row {
			width[j] = max(width[j], utf8.RuneCountInString(c))
		}
	}
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	for _, row := range lines {
		for j, c := range row {
			pad := strings.Repeat(" ", width[j]-utf8.RuneCountInString(c))
			if j == 0 {
				b.WriteString(c + pad)
			} else {
				b.WriteString("  " + pad + c)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// WriteCSV writes the header and the rows as CSV records.
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

func itoa(v int) string             { return strconv.Itoa(v) }
func fixed(v float64, p int) string { return strconv.FormatFloat(v, 'f', p, 64) }
func shortest(v float64) string     { return strconv.FormatFloat(v, 'g', -1, 64) }

// StatsTable is Table 1; a dataset without ground truth has "N.A."
// categories, as in the paper.
func StatsTable(rows []DatasetStats) Table {
	t := Table{Title: "Table 1: dataset details", Header: []string{"dataset", "vertices", "edges", "symmetric_pct", "categories"}}
	for _, r := range rows {
		cat := "N.A."
		if r.Categories > 0 {
			cat = itoa(r.Categories)
		}
		t.add(r.Name, itoa(r.Vertices), itoa(r.Edges), fixed(r.SymmetricPct, 1), cat)
	}
	return t
}

// SizeTable is Table 2.
func SizeTable(rows []SymmetrizationSize) Table {
	t := Table{Title: "Table 2: symmetrized edge counts and prune thresholds", Header: []string{"dataset", "method", "edges", "threshold", "singletons", "seconds"}}
	for _, r := range rows {
		t.add(r.Dataset, r.Method.String(), itoa(r.Edges), shortest(r.Threshold), itoa(r.Singletons), fixed(r.Seconds, 4))
	}
	return t
}

// ThresholdTable is Table 3.
func ThresholdTable(rows []ThresholdRow) Table {
	t := Table{Title: "Table 3: effect of varying the prune threshold (Wiki, Degree-discounted)", Header: []string{"threshold", "edges", "mcl_f", "mcl_seconds", "metis_f", "metis_seconds"}}
	for _, r := range rows {
		t.add(shortest(r.Threshold), itoa(r.Edges), fixed(r.MCLF, 3), fixed(r.MCLSeconds, 4), fixed(r.MetisF, 3), fixed(r.MetisSecs, 4))
	}
	return t
}

// AlphaBetaTable is Table 4.
func AlphaBetaTable(rows []AlphaBetaRow) Table {
	t := Table{Title: "Table 4: effect of varying α, β (Metis)", Header: []string{"alpha", "beta", "cora_f", "wiki_f"}}
	for _, r := range rows {
		t.add(r.Alpha, r.Beta, fixed(r.CoraF, 3), fixed(r.WikiF, 3))
	}
	return t
}

// TopEdgeTable is Table 5.
func TopEdgeTable(rows []TopEdgeRow) Table {
	t := Table{Title: "Table 5: top-weighted edges per symmetrization (Wiki)", Header: []string{"method", "node1", "node2", "weight"}}
	for _, r := range rows {
		t.add(r.Method.String(), r.Node1, r.Node2, fixed(r.Weight, 1))
	}
	return t
}

// SeriesTable is a Figure 5–9 sweep, one row per point: its Avg-F and
// its clustering time.
func SeriesTable(title string, series []FSeries) Table {
	t := Table{Title: title, Header: []string{"series", "clusters", "avg_f", "seconds"}}
	for _, s := range series {
		for _, p := range s.Points {
			t.add(s.Label, itoa(p.Clusters), fixed(p.AvgF, 4), fixed(p.Seconds, 4))
		}
	}
	return t
}

// DegreeTable is Figure 4's histograms, one row per log bucket
// [bucket_low, bucket_high); bucket_low = 0 is the zero-degree count.
func DegreeTable(rows []DegreeDistribution) Table {
	t := Table{Title: "Figure 4: node degree distributions of Wiki symmetrizations", Header: []string{"method", "bucket_low", "bucket_high", "count"}}
	for _, r := range rows {
		t.add(r.Method.String(), "0", "0", itoa(r.Hist.Zero))
		for b, count := range r.Hist.Buckets {
			t.add(r.Method.String(), itoa(1<<b), itoa(1<<(b+1)), itoa(count))
		}
	}
	return t
}

// SignTestTable is the §5.6 sign tests.
func SignTestTable(rows []SignTestRow) Table {
	t := Table{Title: "Sign tests (§5.6): paired binomial, one-sided", Header: []string{"dataset", "comparison", "a_only", "b_only", "log10_p"}}
	for _, r := range rows {
		t.add(r.Dataset, r.Comparison, itoa(r.NAOnly), itoa(r.NBOnly), fixed(r.Log10PValue, 1))
	}
	return t
}

// CaseStudyTable is the §5.7 / Figure 1 case study.
func CaseStudyTable(rows []CaseStudyResult) Table {
	t := Table{Title: "Case study (§5.7, Figure 1): recovering shared-link clusters", Header: []string{"method", "twins_linked", "twins_clustered", "list_recall_pct"}}
	for _, r := range rows {
		t.add(r.Method.String(), strconv.FormatBool(r.TwinsConnected), strconv.FormatBool(r.TwinsClustered), fixed(r.ListRecallPct, 1))
	}
	return t
}

// SpamTable is the §6 future-work spam probe.
func SpamTable(rows []SpamProbeResult) Table {
	t := Table{Title: "Spam probe (§6 future work): link-farm edges among top-20 weighted edges", Header: []string{"method", "spam_in_top20"}}
	for _, r := range rows {
		t.add(r.Method.String(), itoa(r.SpamAmongTop))
	}
	return t
}

// ControlledTable is the controlled sweep: one Avg-F column per
// symmetrization, in registry order.
func ControlledTable(rows []ControlledRow) Table {
	t := Table{Title: "Controlled validation (§6 future work): Avg-F vs shared-cluster fraction (MLR-MCL)", Header: []string{"shared_fraction"}}
	for _, m := range pipeline.Methods() {
		t.Header = append(t.Header, m.String())
	}
	for _, r := range rows {
		cells := []string{shortest(r.SharedFraction)}
		for _, m := range pipeline.Methods() {
			cells = append(cells, fixed(r.F[m], 3))
		}
		t.add(cells...)
	}
	return t
}
