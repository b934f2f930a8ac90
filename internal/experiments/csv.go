package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"symcluster/internal/pipeline"
)

// CSV export of experiment results, so the figures can be re-plotted
// with external tooling. Every writer emits a header row and one data
// row per point.

// WriteSeriesCSV writes an FSeries set (Figures 5–9) as
// series,clusters,avg_f,seconds rows.
func WriteSeriesCSV(w io.Writer, series []FSeries) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "clusters", "avg_f", "seconds"}); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			rec := []string{
				s.Label,
				strconv.Itoa(p.Clusters),
				strconv.FormatFloat(p.AvgF, 'f', 4, 64),
				strconv.FormatFloat(p.Seconds, 'f', 4, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable2CSV writes the Table 2 rows.
func WriteTable2CSV(w io.Writer, rows []SymmetrizationSize) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "method", "edges", "threshold", "singletons", "seconds"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Dataset,
			r.Method.String(),
			strconv.Itoa(r.Edges),
			strconv.FormatFloat(r.Threshold, 'g', -1, 64),
			strconv.Itoa(r.Singletons),
			strconv.FormatFloat(r.Seconds, 'f', 4, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable3CSV writes the Table 3 rows.
func WriteTable3CSV(w io.Writer, rows []ThresholdRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"threshold", "edges", "mcl_f", "mcl_seconds", "metis_f", "metis_seconds"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.FormatFloat(r.Threshold, 'g', -1, 64),
			strconv.Itoa(r.Edges),
			strconv.FormatFloat(r.MCLF, 'f', 3, 64),
			strconv.FormatFloat(r.MCLSeconds, 'f', 4, 64),
			strconv.FormatFloat(r.MetisF, 'f', 3, 64),
			strconv.FormatFloat(r.MetisSecs, 'f', 4, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable4CSV writes the Table 4 rows.
func WriteTable4CSV(w io.Writer, rows []AlphaBetaRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"alpha", "beta", "cora_f", "wiki_f"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Alpha,
			r.Beta,
			strconv.FormatFloat(r.CoraF, 'f', 3, 64),
			strconv.FormatFloat(r.WikiF, 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteControlledCSV writes the controlled-sweep rows.
func WriteControlledCSV(w io.Writer, rows []ControlledRow) error {
	cw := csv.NewWriter(w)
	header := []string{"shared_fraction"}
	for _, m := range pipeline.Methods() {
		header = append(header, m.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{strconv.FormatFloat(r.SharedFraction, 'g', -1, 64)}
		for _, m := range pipeline.Methods() {
			rec = append(rec, strconv.FormatFloat(r.F[m], 'f', 3, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure4CSV writes the degree-distribution histograms as
// method,bucket_low,bucket_high,count rows (bucket_low = 0 encodes the
// zero-degree count).
func WriteFigure4CSV(w io.Writer, rows []DegreeDistribution) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"method", "bucket_low", "bucket_high", "count"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.Method.String(), "0", "0", strconv.Itoa(r.Hist.Zero)}); err != nil {
			return err
		}
		for b, count := range r.Hist.Buckets {
			rec := []string{
				r.Method.String(),
				fmt.Sprintf("%d", 1<<b),
				fmt.Sprintf("%d", 1<<(b+1)),
				strconv.Itoa(count),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
