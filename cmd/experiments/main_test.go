package main

import (
	"bytes"
	"context"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"

	"symcluster/internal/experiments"
	"symcluster/internal/gen"
)

// TestUnknownExperimentFailsBeforeLoad: a typo among valid names exits 2
// with the valid set before any experiment runs or any dataset is
// generated — at paper scale that was minutes of work thrown away.
func TestUnknownExperimentFailsBeforeLoad(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-scale", "paper", "table3", "table4", "tabel5"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr %q", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed %q before refusing the name", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `"tabel5"`) || !strings.Contains(msg, strings.Join(catalogNames(), " ")) {
		t.Fatalf("stderr %q does not name the typo and the valid set", msg)
	}
}

// TestCatalogIsTheDocumentedSet holds the package comment's experiment
// list to the catalog, in order.
func TestCatalogIsTheDocumentedSet(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	const lead = "Experiments, in the order all runs them:"
	_, list, ok := strings.Cut(f.Doc.Text(), lead)
	if !ok {
		t.Fatalf("package comment has no %q list", lead)
	}
	list, _, _ = strings.Cut(list, "\n\n")
	if got := strings.Fields(list); !slices.Equal(got, catalogNames()) {
		t.Fatalf("package comment lists %v, catalog is %v", got, catalogNames())
	}
}

// TestEveryExperimentIsATable runs the catalog on tiny datasets: every
// entry but fig10 (a narrative) yields a table with a header whose rows
// are all as wide as it, so -csv writes a rectangular file for each.
func TestEveryExperimentIsATable(t *testing.T) {
	cora, err := gen.Citation(gen.CitationOptions{Nodes: 300, Topics: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wiki, err := gen.Wiki(gen.WikiOptions{ListClusters: 6, RecipClusters: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	flickr, err := gen.Kronecker(gen.KroneckerOptions{Scale: 7, EdgeFactor: 6, Reciprocity: 0.6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cora.Name, wiki.Name, flickr.Name = "cora", "wiki", "flickr"
	d := &experiments.Datasets{Cora: cora, Wiki: wiki, Flickr: flickr, LiveJournal: flickr}
	for _, e := range catalog {
		if e.name == "fig10" {
			continue
		}
		tab, _, err := e.run(context.Background(), d, 1)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Fatalf("%s: header %v, %d rows", e.name, tab.Header, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s: row %v is not as wide as header %v", e.name, row, tab.Header)
			}
		}
	}
}
