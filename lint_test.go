package symcluster_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A sourceRule is one source-hygiene invariant: no node matching match
// may appear in a file that applies accepts (slash-separated path from
// the repository root).
type sourceRule struct {
	why     string
	applies func(file string) bool
	match   func(n ast.Node) bool
}

func isTest(file string) bool { return strings.HasSuffix(file, "_test.go") }

// under reports whether file lives below one of dirs.
func under(file string, dirs ...string) bool {
	for _, d := range dirs {
		if strings.HasPrefix(file, d+"/") {
			return true
		}
	}
	return false
}

// sel reports whether e is the qualified name pkg.name for one of names.
func sel(e ast.Expr, pkg string, names ...string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := s.X.(*ast.Ident)
	if !ok || x.Name != pkg {
		return false
	}
	for _, n := range names {
		if s.Sel.Name == n {
			return true
		}
	}
	return false
}

// call reports whether n calls pkg.name for one of names.
func call(n ast.Node, pkg string, names ...string) bool {
	c, ok := n.(*ast.CallExpr)
	return ok && sel(c.Fun, pkg, names...)
}

// mentions reports whether any identifier under n contains one of subs.
func mentions(n ast.Node, subs ...string) (found bool) {
	if n == nil {
		return false
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			for _, s := range subs {
				found = found || strings.Contains(id.Name, s)
			}
		}
		return !found
	})
	return found
}

// headerSet reports the header name of a call that sets or adds a
// literal-named header: x.Header.Set("Name", …) or x.Header().Add(…).
func headerSet(n ast.Node) (string, bool) {
	c, ok := n.(*ast.CallExpr)
	if !ok || len(c.Args) == 0 {
		return "", false
	}
	fun, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || (fun.Sel.Name != "Set" && fun.Sel.Name != "Add") {
		return "", false
	}
	recv := fun.X
	if call, isCall := recv.(*ast.CallExpr); isCall {
		recv = call.Fun
	}
	hdr, ok := recv.(*ast.SelectorExpr)
	key, isLit := c.Args[0].(*ast.BasicLit)
	if !ok || hdr.Sel.Name != "Header" || !isLit || key.Kind != token.STRING {
		return "", false
	}
	name, _ := strconv.Unquote(key.Value)
	return name, true
}

// outside turns "node inside" into "function other than fns containing
// node": the match of a rule that confines a call to named functions.
func outside(inside func(ast.Node) bool, fns ...string) func(ast.Node) bool {
	return func(n ast.Node) (found bool) {
		decl, ok := n.(*ast.FuncDecl)
		if !ok || decl.Body == nil || slices.Contains(fns, decl.Name.Name) {
			return false
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			found = found || (n != nil && inside(n))
			return !found
		})
		return found
	}
}

// fieldCall matches a method call through a struct field: x.field.method(…).
func fieldCall(field, method string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		fun, ok := c.Fun.(*ast.SelectorExpr)
		if !ok || fun.Sel.Name != method {
			return false
		}
		recv, ok := fun.X.(*ast.SelectorExpr)
		return ok && recv.Sel.Name == field
	}
}

// inServer scopes a rule to the non-test files of internal/server.
func inServer(f string) bool { return !isTest(f) && under(f, "internal/server") }

// stageCallers names every function that may run a pipeline stage
// itself — call a registry entry's Run (the only three-argument Run
// methods in the module). The runner
// composes the two stages; the library's single-stage helpers and the
// experiment sweeps, which cluster one symmetrized graph many times,
// each run exactly one.
var stageCallers = map[string][]string{
	"internal/pipeline/run.go":        {"Execute"},
	"symcluster.go":                   {"ClusterCtx"},
	"internal/experiments/figures.go": {"clusterWith", "clusterAtInflation"},
}

func stageCall(n ast.Node) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := c.Fun.(*ast.SelectorExpr)
	return ok && fun.Sel.Name == "Run" && len(c.Args) == 3
}

// stageRules confines stageCall to stageCallers: a file listed there
// may make one only inside the functions named, any other file not at
// all.
func stageRules() []sourceRule {
	const why = "Symmetrizer.Run or Clusterer.Run called outside pipeline.Run.Execute and the " +
		"single-stage helpers named in lint_test.go's stageCallers: the two stages are composed, traced " +
		"under metered stage spans and memoised in one body, so the CLI, the daemon and the library " +
		"cannot drift apart (DESIGN.md §10, \"Execution and tracing\")"
	rules := []sourceRule{{
		why:     why,
		applies: func(f string) bool { return !isTest(f) && stageCallers[f] == nil },
		match:   stageCall,
	}}
	for file, fns := range stageCallers {
		rules = append(rules, sourceRule{
			why:     why,
			applies: func(f string) bool { return f == file },
			match:   outside(stageCall, fns...),
		})
	}
	return rules
}

var sourceRules = []sourceRule{
	{
		why: "switch over Method/Algorithm outside internal/pipeline: the registry is the single " +
			"catalog of methods and algorithms, and a switch elsewhere is a shadow catalog that goes " +
			"stale when an entry is added (use the registry instead)",
		applies: func(f string) bool { return !under(f, "internal/pipeline") },
		match: func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.SwitchStmt:
				return mentions(s.Init, "Method", "Algo") || mentions(s.Tag, "Method", "Algo")
			case *ast.TypeSwitchStmt:
				return mentions(s.Assign, "Method", "Algo")
			}
			return false
		},
	},
	{
		why: "log.Printf/fmt.Println in internal/ or cmd/symclusterd: they bypass the structured " +
			"handler and lose the request/trace attributes (use log/slog via internal/obs, DESIGN.md §11)",
		applies: func(f string) bool { return !isTest(f) && under(f, "internal", "cmd/symclusterd") },
		match:   func(n ast.Node) bool { return call(n, "log", "Printf") || call(n, "fmt", "Println") },
	},
	{
		why: "direct file write in internal/server: job state reaches disk only through " +
			"internal/jobstore, so every mutation is WAL-journaled and crash-safe (DESIGN.md §12)",
		applies: func(f string) bool { return !isTest(f) && under(f, "internal/server") },
		match:   func(n ast.Node) bool { return call(n, "os", "WriteFile", "Create", "OpenFile", "Rename") },
	},
	{
		why: "raw mmap outside internal/csr: map files through csr.Open so lifetimes, CRC " +
			"validation and the mapped-bytes gauge stay correct (DESIGN.md §13)",
		applies: func(f string) bool { return !under(f, "internal/csr") },
		match: func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			return ok && (sel(e, "syscall", "Mmap") || sel(e, "unix", "Mmap"))
		},
	},
	{
		why: "raw flock outside internal/jobstore: a journal's lock is taken by jobstore.Open and " +
			"jobstore.TryOpen and released by Store.Close, and it alone decides who may write a " +
			"journal (DESIGN.md §14, \"Ownership transfer\")",
		applies: func(f string) bool { return !under(f, "internal/jobstore") },
		match: func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			return ok && (sel(e, "syscall", "Flock") || sel(e, "unix", "Flock"))
		},
	},
	{
		why: "jobstore.TryOpen outside internal/server/adoption.go: a journal is taken from a " +
			"peer only by an adoption pass, which asks the lock whether its owner is alive " +
			"(DESIGN.md §14, \"Ownership transfer\")",
		applies: func(f string) bool { return !isTest(f) && f != "internal/server/adoption.go" },
		match:   func(n ast.Node) bool { return call(n, "jobstore", "TryOpen") },
	},
	{
		why: "metrics registry or family constructor outside internal/obs and internal/server: a run's " +
			"record is its span tree, and the daemon reads every family off the trees it exports " +
			"through its span table, so a kernel sets span attributes and never meters on the side " +
			"(DESIGN.md §11, \"Metrics\")",
		applies: func(f string) bool { return !isTest(f) && !under(f, "internal/obs", "internal/server") },
		match: func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return false
			}
			fun, ok := c.Fun.(*ast.SelectorExpr)
			family := ok && len(c.Args) >= 2 && slices.Contains([]string{"Histogram", "Counter", "Gauge"}, fun.Sel.Name)
			return family || call(n, "obs", "NewRegistry")
		},
	},
	{
		why: "raw http.Client in internal/server or internal/cluster: peer traffic goes through " +
			"cluster.NewClient so every hop is one request that carries the caller's deadline, " +
			"trace and forwarding headers and passes the proxy.forward fault site (DESIGN.md §14)",
		applies: func(f string) bool {
			return under(f, "internal/server", "internal/cluster") && f != "internal/cluster/client.go"
		},
		match: func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			return ok && sel(lit.Type, "http", "Client")
		},
	},
	{
		why: "sleep or timer in internal/cluster: a hop is one request and never waits; retrying, " +
			"and waiting to retry, is the caller's, and the one retry loop is symcluster -server's " +
			"(DESIGN.md §14)",
		applies: func(f string) bool { return !isTest(f) && under(f, "internal/cluster") },
		match: func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			return ok && sel(e, "time", "Sleep", "After", "NewTimer", "Tick", "NewTicker", "AfterFunc")
		},
	},
	{
		why: "production call to the sparse-product oracle: matrix.MulPrunedCtx is the reference " +
			"the tests hold the engine to; products go through matrix.SumXXTScaledPrunedUpperCtx " +
			"or an Expander (DESIGN.md §15)",
		applies: func(f string) bool { return !isTest(f) },
		match:   func(n ast.Node) bool { return call(n, "matrix", "MulPrunedCtx") },
	},
	{
		why: "matrix.MulXXTScaledPrunedCtx outside tests and bench/: a sum of self-products goes through " +
			"matrix.SumXXTScaledPrunedUpperCtx, which adds each term's rows to the running sum as they are " +
			"flushed, so no caller builds a term's matrix and then Adds it (DESIGN.md §15, \"Why bit-identity holds\")",
		applies: func(f string) bool { return !isTest(f) && !under(f, "bench") },
		match:   func(n ast.Node) bool { return call(n, "matrix", "MulXXTScaledPrunedCtx") },
	},
	{
		why: "raw propagation-header write outside internal/cluster: traceparent and " +
			"X-Symclusterd-* headers are set only by the cluster client, so cross-node identity " +
			"cannot fork (DESIGN.md §16)",
		applies: func(f string) bool { return !isTest(f) && !under(f, "internal/cluster") },
		match: func(n ast.Node) bool {
			name, ok := headerSet(n)
			return ok && (strings.HasPrefix(name, "X-Symclusterd-") || strings.EqualFold(name, "traceparent"))
		},
	},
	{
		why: "Retry-After set outside refuse in internal/server: one function turns an error into a " +
			"status and decides whether the client is told to come back (DESIGN.md §9, \"HTTP status map\")",
		applies: inServer,
		match: outside(func(n ast.Node) bool {
			name, ok := headerSet(n)
			return ok && strings.EqualFold(name, "Retry-After")
		}, "refuse"),
	},
	{
		why: "csr.Open outside openGraphFile in internal/server: a binary CSR file becomes a graph — " +
			"mapped, wrapped, fingerprinted once, unmapped on failure — in one place (DESIGN.md §14)",
		applies: inServer,
		match:   outside(func(n ast.Node) bool { return call(n, "csr", "Open") }, "openGraphFile"),
	},
	{
		why: "ring.Owner outside ownerOf in internal/server: every ownership question gets the same " +
			"answer, the ring owner alone (DESIGN.md §14)",
		applies: inServer,
		match:   outside(fieldCall("ring", "Owner"), "ownerOf"),
	},
	{
		why: "Pool.Reserve outside admit in internal/server: every gate that can refuse a clustering job " +
			"is evaluated in one function, in one order, and a queue place is the last of them " +
			"(DESIGN.md §9, \"Admission control\")",
		applies: inServer,
		match:   outside(fieldCall("pool", "Reserve"), "admit"),
	},
	{
		why: "jobs.Admit in internal/server outside submitAsync (which holds the ticket admit gave it) and " +
			"adoptFrom: reserve, then journal, then run — a job is journaled only once it holds a queue " +
			"place, so a refused submission leaves no record and pins no key (DESIGN.md §9, \"Admission control\")",
		applies: inServer,
		match:   outside(fieldCall("jobs", "Admit"), "submitAsync", "adoptFrom"),
	},
	{
		why: "multilevel.CoarsenCtx called outside internal/multilevel and internal/mcl (and bench/'s probe " +
			"of it): Graclus and Metis coarsen through the hierarchy memo they are handed — Hier.Coarsen, " +
			"which builds into their workspace when the memo is nil or bound to another adjacency (a Metis subgraph) — so " +
			"no caller grows a second way round a cache entry's kept hierarchy (DESIGN.md §15, \"The " +
			"multilevel substrate\")",
		applies: func(f string) bool {
			return !isTest(f) && !under(f, "internal/multilevel", "internal/mcl", "bench")
		},
		match: func(n ast.Node) bool { return call(n, "multilevel", "CoarsenCtx") },
	},
	{
		why: "time.Now or time.Since in internal/pipeline: a stage's wall clock is its span's, read off " +
			"the run's tree by the response, the stats and the metrics alike; a second clock here is a " +
			"second record that disagrees with the first (DESIGN.md §11)",
		applies: func(f string) bool { return !isTest(f) && under(f, "internal/pipeline") },
		match:   func(n ast.Node) bool { return call(n, "time", "Now", "Since") },
	},
	{
		why: "symcluster import in internal/matrix: the sparse-product kernel is a leaf, and what its " +
			"products did is a return value (matrix.Tally) that the caller sets on its own span, never a " +
			"collector the kernel finds in the context (DESIGN.md §15, \"The prune tally\")",
		applies: func(f string) bool { return !isTest(f) && under(f, "internal/matrix") },
		match: func(n ast.Node) bool {
			imp, ok := n.(*ast.ImportSpec)
			if !ok {
				return false
			}
			p, _ := strconv.Unquote(imp.Path.Value)
			return p == "symcluster" || strings.HasPrefix(p, "symcluster/")
		},
	},
	{
		why: "sync.Pool in a clustering kernel: a collection empties it, so the first call after a GC grows " +
			"its buffers again and what a request allocates tracks GC timing; kernel scratch waits in a " +
			"multilevel.FreeList, at most GOMAXPROCS workspaces per clusterer (DESIGN.md §15, \"Recycled buffers\")",
		applies: func(f string) bool {
			return !isTest(f) && under(f, "internal/matrix", "internal/mcl", "internal/graclus", "internal/metis", "internal/multilevel")
		},
		match: func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			return ok && sel(e, "sync", "Pool")
		},
	},
	{
		why: "container/heap in a clustering kernel: its Push and Pop box every item into an " +
			"interface{}, one allocation per inner-loop step (261 k per Metis request before PR 19); " +
			"use a typed heap as internal/metis does (DESIGN.md §15, \"The multilevel substrate\")",
		applies: func(f string) bool {
			return !isTest(f) && under(f, "internal/matrix", "internal/multilevel", "internal/graclus", "internal/metis", "internal/mcl")
		},
		match: func(n ast.Node) bool {
			imp, ok := n.(*ast.ImportSpec)
			return ok && imp.Path.Value == `"container/heap"`
		},
	},
	{
		why: "encoding/csv outside internal/experiments/table.go: an experiment's CSV is its Table's " +
			"WriteCSV, the same cells its text shows, so a second writer cannot drift from them " +
			"(DESIGN.md §4)",
		applies: func(f string) bool { return !isTest(f) && f != "internal/experiments/table.go" },
		match: func(n ast.Node) bool {
			imp, ok := n.(*ast.ImportSpec)
			return ok && imp.Path.Value == `"encoding/csv"`
		},
	},
}

// backgroundRule confines context.Background() to package main and
// internal/server's bootctx.go (bench/ aside): everything else is handed
// the context it runs under.
func backgroundRule(files map[string]*ast.File) sourceRule {
	return sourceRule{
		why: "context.Background() outside package main and internal/server/bootctx.go: work inherits its caller's " +
			"context so deadlines and Ctrl-C propagate end-to-end; a command's main makes the root " +
			"context, and sanctioned boot/background work in internal/server goes through " +
			"bootContext() (DESIGN.md §9, §17)",
		applies: func(f string) bool {
			return !isTest(f) && !under(f, "bench") && files[f].Name.Name != "main" && f != "internal/server/bootctx.go"
		},
		match: func(n ast.Node) bool { return call(n, "context", "Background") },
	}
}

// funcKey names an exported function or method within its package:
// "dir Name" or "dir Recv.Name".
func funcKey(dir string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return dir + " " + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) { // a generic receiver T[K] or T[K, V]
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	name := "?"
	if id, ok := recv.(*ast.Ident); ok {
		name = id.Name
	}
	return dir + " " + name + "." + fd.Name.Name
}

// docCeilings pins each doc at its current length, so a change edits it
// in place. It is a ratchet: a doc longer than its cap fails, and so does
// one shorter, until the change that shortened it lowers the cap to the
// new length; no change raises one (ROADMAP item 10 takes DESIGN.md's
// toward 900).
var docCeilings = map[string]int{"DESIGN.md": 2150, "README.md": 709}

// TestSourceLints is `make lint`: it parses every Go file of the
// repository (bench/ included) and holds it to sourceRules, the
// stageRules and backgroundRule, and to the rules no pattern can express
// — no exported F beside an exported FCtx, no Workers field reachable
// from pipeline.SymOptions, no assembly file outside internal/matrix, no
// doc past its docCeilings line count.
func TestSourceLints(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if !d.IsDir() && strings.HasSuffix(p, ".s") && filepath.ToSlash(filepath.Dir(p)) != "internal/matrix" {
			t.Errorf("%s: assembly outside internal/matrix: the dense scan's vector body is the module's one "+
				"routine the compiler does not write, beside the Go loop that defines it and the fuzzer that "+
				"holds the two together (DESIGN.md §15, \"Collect\")", p)
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(p)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	all := append(append(stageRules(), backgroundRule(files)), sourceRules...)
	for name, f := range files {
		var rules []sourceRule
		for _, rule := range all {
			if rule.applies(name) {
				rules = append(rules, rule)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			for _, rule := range rules {
				if n != nil && rule.match(n) {
					t.Errorf("%s: %s", fset.Position(n.Pos()), rule.why)
				}
			}
			return true
		})
	}

	exported := map[string]*ast.FuncDecl{}
	for name, f := range files {
		if isTest(name) || under(name, "bench") {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				exported[funcKey(path.Dir(name), fd)] = fd
			}
		}
	}
	for key := range exported {
		if base, ok := strings.CutSuffix(key, "Ctx"); ok && exported[base] != nil {
			t.Errorf("%s: exported %s beside %sCtx in one package: one entry per operation, and it takes the "+
				"caller's context — delete the context-free twin (the Ctx suffix stays while bench/ is frozen; "+
				"DESIGN.md §9)", fset.Position(exported[base].Pos()), exported[base].Name.Name, exported[base].Name.Name)
		}
	}

	for doc, ceiling := range docCeilings {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		switch n := bytes.Count(b, []byte("\n")); {
		case n > ceiling:
			t.Errorf("%s: %d lines, ceiling %d: edit in place — what a change adds, it takes out elsewhere, and "+
				"history goes to CHANGES.md (ROADMAP item 10)", doc, n, ceiling)
		case n < ceiling:
			t.Errorf("%s: %d lines, ceiling %d: lower its docCeilings entry to %d, so the next change cannot "+
				"refill the slack", doc, n, ceiling, n)
		}
	}

	types := typeIndex{files: files}
	if _, _, ok := types.lookup("internal/pipeline", "SymOptions"); !ok {
		t.Fatal("pipeline.SymOptions is gone; point the Workers lint at wherever symmetrization options now live")
	}
	if trail := types.fieldReachable("internal/pipeline", "SymOptions", "Workers", map[string]bool{}); trail != "" {
		t.Errorf("Workers field reachable from pipeline.SymOptions via %s: symmetrization workers are "+
			"derived from GOMAXPROCS and the row tiles, never configured (DESIGN.md §15)", trail)
	}
}

// typeIndex resolves named types across the module's parsed packages,
// far enough to follow aliases, embedding and field types.
type typeIndex struct{ files map[string]*ast.File }

// lookup finds the declaration of dir's type name and the file holding it.
func (ti typeIndex) lookup(dir, name string) (*ast.TypeSpec, *ast.File, bool) {
	for file, f := range ti.files {
		if path.Dir(file) != dir || isTest(file) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
					return ts, f, true
				}
			}
		}
	}
	return nil, nil, false
}

// fieldReachable reports how a struct field called field can be reached
// from dir's type name ("" when it cannot): "pkg.Type" for the struct
// that declares it, prefixed by the types passed through on the way.
func (ti typeIndex) fieldReachable(dir, name, field string, seen map[string]bool) string {
	id := dir + "." + name
	ts, f, ok := ti.lookup(dir, name)
	if seen[id] || !ok {
		return ""
	}
	seen[id] = true
	if trail := ti.exprReaches(ts.Type, f, dir, field, seen); trail != "" {
		return id + " → " + trail
	}
	return ""
}

func (ti typeIndex) exprReaches(e ast.Expr, f *ast.File, dir, field string, seen map[string]bool) string {
	switch e := e.(type) {
	case *ast.StructType:
		for _, fl := range e.Fields.List {
			for _, n := range fl.Names {
				if n.Name == field {
					return "field " + field
				}
			}
			if trail := ti.exprReaches(fl.Type, f, dir, field, seen); trail != "" {
				return trail
			}
		}
	case *ast.Ident:
		return ti.fieldReachable(dir, e.Name, field, seen)
	case *ast.SelectorExpr:
		pkg, ok := e.X.(*ast.Ident)
		if !ok {
			return ""
		}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(ipath)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			if rel, inModule := strings.CutPrefix(ipath, "symcluster/"); inModule && local == pkg.Name {
				return ti.fieldReachable(rel, e.Sel.Name, field, seen)
			}
		}
	case *ast.StarExpr:
		return ti.exprReaches(e.X, f, dir, field, seen)
	case *ast.ParenExpr:
		return ti.exprReaches(e.X, f, dir, field, seen)
	case *ast.ArrayType:
		return ti.exprReaches(e.Elt, f, dir, field, seen)
	case *ast.MapType:
		return ti.exprReaches(e.Value, f, dir, field, seen)
	}
	return ""
}
