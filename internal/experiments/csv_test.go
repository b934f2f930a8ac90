package experiments

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"

	"symcluster/internal/core"
	"symcluster/internal/graph"
)

// TestTableCSVsPinned: each builder's CSV is, byte for byte, what the
// hand-written writer it replaced produced on the same rows — the
// headers, the precisions and the quoting of the 16 encodings a
// regenerated result is compared against.
func TestTableCSVsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		tab  Table
		want string
	}{
		{"series", SeriesTable("", []FSeries{
			{Label: "DegreeDiscounted", Points: []FPoint{{Clusters: 70, AvgF: 36.62, Seconds: 1.5}}},
			{Label: "A+A'", Points: []FPoint{{Clusters: 68, AvgF: 31.2, Seconds: 0.9}, {Clusters: 90, AvgF: 30, Seconds: 1}}},
		}), "series,clusters,avg_f,seconds\nDegreeDiscounted,70,36.6200,1.5000\nA+A',68,31.2000,0.9000\nA+A',90,30.0000,1.0000\n"},
		{"table2", SizeTable([]SymmetrizationSize{
			{Dataset: "wiki", Method: core.Bibliometric, Edges: 100, Threshold: 2, Singletons: 5, Seconds: 0.5},
			{Dataset: "cora", Method: core.DegreeDiscounted, Edges: 7, Threshold: 0.0125, Singletons: 0, Seconds: 1.23456},
		}), "dataset,method,edges,threshold,singletons,seconds\nwiki,Bibliometric,100,2,5,0.5000\ncora,DegreeDiscounted,7,0.0125,0,1.2346\n"},
		{"table3", ThresholdTable([]ThresholdRow{
			{Threshold: 0.01, Edges: 9, MCLF: 22.5, MCLSeconds: 1, MetisF: 20, MetisSecs: 2},
			{Threshold: 0.035, Edges: 3, MCLF: 1.23456, MCLSeconds: 0.00005, MetisF: 99.9999, MetisSecs: 12.34567},
		}), "threshold,edges,mcl_f,mcl_seconds,metis_f,metis_seconds\n0.01,9,22.500,1.0000,20.000,2.0000\n0.035,3,1.235,0.0001,100.000,12.3457\n"},
		{"table4", AlphaBetaTable([]AlphaBetaRow{
			{Alpha: "0.5", Beta: "0.5", CoraF: 31.66, WikiF: 20.15},
			{Alpha: "0", Beta: "1", CoraF: 30.0004, WikiF: 19.9996},
		}), "alpha,beta,cora_f,wiki_f\n0.5,0.5,31.660,20.150\n0,1,30.000,20.000\n"},
		{"controlled", ControlledTable([]ControlledRow{
			{SharedFraction: 0.5, F: map[core.Method]float64{core.DegreeDiscounted: 95}},
			{SharedFraction: 0.25, F: map[core.Method]float64{core.AAT: 12.3456, core.RandomWalk: 1, core.Bibliometric: 50.5, core.DegreeDiscounted: 99.99}},
		}), "shared_fraction,DegreeDiscounted,Bibliometric,A+A',RandomWalk\n0.5,95.000,0.000,0.000,0.000\n0.25,99.990,50.500,12.346,1.000\n"},
		{"fig4", DegreeTable([]DegreeDistribution{
			{Method: core.AAT, Hist: graph.DegreeHistogram{Zero: 2, Buckets: []int{3, 1}}},
			{Method: core.DegreeDiscounted, Hist: graph.DegreeHistogram{Zero: 0, Buckets: []int{0, 4, 0}}},
		}), "method,bucket_low,bucket_high,count\nA+A',0,0,2\nA+A',1,2,3\nA+A',2,4,1\nDegreeDiscounted,0,0,0\nDegreeDiscounted,1,2,0\nDegreeDiscounted,2,4,4\nDegreeDiscounted,4,8,0\n"},
	} {
		var buf bytes.Buffer
		if err := tc.tab.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != tc.want {
			t.Errorf("%s csv:\n got %q\nwant %q", tc.name, buf.String(), tc.want)
		}
	}
}

// TestTableTextAlignsByRunes: a multi-byte header is as wide as its rune
// count, so every column starts at the same rune offset on every line.
func TestTableTextAlignsByRunes(t *testing.T) {
	tab := Table{Title: "t", Header: []string{"α", "β§β", "§"}}
	tab.add("long-name", "1", "22.5")
	tab.add("x", "12345", "3")
	lines := strings.Split(strings.TrimSuffix(tab.Text(), "\n"), "\n")
	want := []string{
		"t",
		"α            β§β     §",
		"long-name      1  22.5",
		"x          12345     3",
	}
	if len(lines) != len(want) {
		t.Fatalf("text:\n%s", tab.Text())
	}
	for i, l := range lines {
		if l != want[i] {
			t.Errorf("line %d = %q, want %q", i, l, want[i])
		}
		if i > 0 && utf8.RuneCountInString(l) != utf8.RuneCountInString(want[1]) {
			t.Errorf("line %d is %d runes wide, header %d", i, utf8.RuneCountInString(l), utf8.RuneCountInString(want[1]))
		}
	}
}
