package main

import (
	"bytes"
	"context"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
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
