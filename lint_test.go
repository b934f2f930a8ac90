package symcluster_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
// methods in the module) or open obs.BeginStage accounting. The runner
// composes the two stages; the library's single-stage helpers and the
// experiment sweeps, which cluster one symmetrized graph many times,
// each run exactly one.
var stageCallers = map[string][]string{
	"internal/pipeline/run.go":        {"Execute"},
	"symcluster.go":                   {"ClusterCtx", "clusterDirectedOnly"},
	"internal/experiments/figures.go": {"clusterWith", "clusterAtInflation"},
}

func stageCall(n ast.Node) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := c.Fun.(*ast.SelectorExpr)
	return call(n, "obs", "BeginStage") || (ok && fun.Sel.Name == "Run" && len(c.Args) == 3)
}

// stageRules confines stageCall to stageCallers: a file listed there
// may make one only inside the functions named, any other file not at
// all.
func stageRules() []sourceRule {
	const why = "Symmetrizer.Run, Clusterer.Run or obs.BeginStage called outside pipeline.Run.Execute and the " +
		"single-stage helpers named in lint_test.go's stageCallers: the two stages are composed, traced, " +
		"timed and memoised in one body, so the CLI, the daemon and the library cannot drift apart " +
		"(DESIGN.md §10, \"Execution and tracing\")"
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
		why: "raw http.Client in internal/server or internal/cluster: peer traffic goes through " +
			"cluster.NewClient so every hop gets per-attempt timeouts, capped jittered backoff and " +
			"Retry-After handling (DESIGN.md §14)",
		applies: func(f string) bool {
			return under(f, "internal/server", "internal/cluster") && f != "internal/cluster/client.go"
		},
		match: func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			return ok && sel(lit.Type, "http", "Client")
		},
	},
	{
		why: "production call to the sparse-product oracle: matrix.MulPrunedCtx is the reference " +
			"the tests hold the engine to; products go through matrix.MulXXTScaledPruned* or " +
			"matrix.MulPrunedTopKCtx (DESIGN.md §15)",
		applies: func(f string) bool { return !isTest(f) },
		match:   func(n ast.Node) bool { return call(n, "matrix", "MulPrunedCtx") },
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
		why: "context.Background() in internal/server or internal/cluster: request work inherits " +
			"the caller's context so deadlines propagate end-to-end; sanctioned boot/background work " +
			"goes through bootContext() in bootctx.go (DESIGN.md §17)",
		applies: func(f string) bool {
			return !isTest(f) && under(f, "internal/server", "internal/cluster") && path.Base(f) != "bootctx.go"
		},
		match: func(n ast.Node) bool { return call(n, "context", "Background") },
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
		why: "ring.Owner outside ownerOf in internal/server: every ownership question — a graph's shard, " +
			"a dead peer's adopter — is asked with the same health view (DESIGN.md §14)",
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
		why: "multilevel.CoarsenCtx called outside internal/multilevel, internal/metis and internal/mcl (and " +
			"bench/'s probe of it): Graclus coarsens through the hierarchy memo it is handed — " +
			"opt.Hier.Coarsen, which is CoarsenCtx when the memo is nil — so no caller grows a second way " +
			"round a cache entry's kept hierarchy (DESIGN.md §15, \"The multilevel substrate\")",
		applies: func(f string) bool {
			return !isTest(f) && !under(f, "internal/multilevel", "internal/metis", "internal/mcl", "bench")
		},
		match: func(n ast.Node) bool { return call(n, "multilevel", "CoarsenCtx") },
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
}

// TestSourceLints is `make lint`: it parses every Go file of the
// repository (bench/ included) and holds it to sourceRules and to the
// stageRules, and to the rules no pattern can express — no Workers field
// reachable from pipeline.SymOptions, no assembly file outside
// internal/matrix.
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
	all := append(stageRules(), sourceRules...)
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
