// Command deadcode lists the declarations under internal/ that no program
// in the module reaches, and exits 1 if there is any.
//
// It type-checks each package's non-test files for linux/amd64, by default
// and with the purego tag, and attributes each use (go/types' Uses, which
// holds every selection's object too) to the top-level declaration around
// it. Liveness spreads from main and init functions, package-level variable
// initializers and the allowlist. A method whose name an interface in the
// module, or stdMethods, declares lives with its receiver type: a call
// through an interface names no method. A declaration is dead if it is
// dead in every build that declares it. Run from the module root:
//
//	go run ./cmd/deadcode
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// allowlist maps each test to the declarations that only it calls. They
// are roots, so what they use stays live too. Declarations are named by
// their directory under internal/ and "Name" or "Type.Method".
var allowlist = map[string][]string{
	// Reference implementations the live code is held to.
	"FuzzScanEquivalence":                         {"index.newTopK", "index.topK.sorted", "mathx.RNG.Float32"},
	"TestPQConsistencyProperty":                   {"index.Flat.Reconstruct", "index.FastScan.Reconstruct"},
	"TestPQReconstructApproximates":               {"index.PQ.Reconstruct"},
	"TestPQRoundTripError":                        {"quant.ProductQuantizer.Encode", "quant.ProductQuantizer.Decode"},
	"TestPQADCMatchesDecodedDistance":             {"quant.ProductQuantizer.ADCTable", "quant.ProductQuantizer.ADCDistance"},
	"TestKMeansInertiaNonIncreasing":              {"quant.Inertia"},
	"TestPCAReconstructionImprovesWithComponents": {"quant.PCA.Reconstruct"},
	"TestCharCNNGradCheck":                        {"nn.CharCNN.Forward", "nn.CharCNN.Backward"},
	"TestCharCNNApplyMatchesForward":              {"nn.CharCNN.Apply", "mathx.Matrix.Clone"},
	"TestCharCNNIdxMatchesDense":                  {"nn.CharCNN.ApplyIdx"},
	"TestMLPGradCheck":                            {"nn.MLP.Apply"},
	"BenchmarkEmbed":                              {"nn.CharCNN.ApplyInto"},
	"FuzzAxpyEquivalence":                         {"mathx.Clone"},
	// Accessors that tests read.
	"TestEmptyArtifact":                            {"artifact.File.Sections"},
	"TestIngestOnReadOnlyClusterKeepsNodesHealthy": {"cluster.Router.IngestCount"},
	"TestPollerGossip":                             {"cluster.Router.Map"},
	"TestRebalanceUnderLoad":                       {"cluster.Map.Partitions"},
	"TestRegistryLazyLoad":                         {"tenant.Tenant.Loaded"},
	"TestVirtualLatencyAccounting":                 {"remote.Service.Requests"},
	"TestWithPartitionBounds":                      {"core.EmbLookup.IndexRows"},
	"TestWord2VecCleanVsTypos":                     {"altembed.Word2Vec.VocabSize"},
	"TestHistogramQuantileAccuracy":                {"obs.NewHistogram", "obs.Histogram.Quantile"},
	"TestRegistryHammer":                           {"obs.Histogram.Count"},
	"TestIndexesAreDerivedOnUse":                   {"kg.Graph.Reindex"},
	// The test harness and test support.
	"TestStoppedNodeUnmapped": {"replica.Cluster.RestartReplica"},
	"TestRollingRestart":      {"replica.Cluster.RollingRestart"},
	"TestSiblingCloseOrder":   {"procmaps.Under"},
}

// stdMethods are the names of standard-library interface methods that the
// module's types implement.
var stdMethods = []string{"String", "Error", "ServeHTTP", "Read", "Write", "Close",
	"MarshalJSON", "UnmarshalJSON", "Unwrap", "Release", "RLock", "RUnlock"}

// initRoot stands for main, init, package-level variable initializers and
// blank declarations: what runs whether or not anything names it.
const initRoot = "<init>"

func main() {
	data, err := os.ReadFile("go.mod")
	_, mod, _ := strings.Cut(string(data), "module ")
	if err != nil || len(strings.Fields(mod)) == 0 {
		fmt.Fprintln(os.Stderr, "deadcode: run from the module root:", err)
		os.Exit(2)
	}
	build.Default.CgoEnabled = false // the standard library's pure-Go files
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil) // shared: tags select only module files
	dead := map[string]token.Position{}              // dead in every build so far
	seen := map[string]bool{}                        // declared in some build so far
	for _, tags := range [][]string{nil, {"purego"}} {
		p := &pass{ctxt: build.Default, fset: fset, std: std, mod: strings.Fields(mod)[0], pkgs: map[string]*types.Package{},
			edges: map[string][]string{}, decls: map[string]token.Pos{}, iface: map[string]bool{}}
		p.ctxt.GOOS, p.ctxt.GOARCH, p.ctxt.BuildTags = "linux", "amd64", tags
		if err := filepath.WalkDir(".", p.visit); err != nil {
			fmt.Fprintf(os.Stderr, "deadcode (tags %v): %v\n", tags, err)
			os.Exit(2)
		}
		live := p.live()
		for key, pos := range p.decls {
			if live[key] {
				delete(dead, key)
			} else if !seen[key] {
				dead[key] = fset.Position(pos)
			}
			seen[key] = true
		}
	}
	var lines []string
	for _, decls := range allowlist {
		for _, d := range decls {
			if !seen[d] {
				lines = append(lines, "allowlist: no build declares "+d)
			}
		}
	}
	for key, pos := range dead {
		if file, _ := filepath.Rel(".", pos.Filename); strings.HasPrefix(file, "internal/") {
			lines = append(lines, fmt.Sprintf("%s:%d %s", file, pos.Line, key))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(lines) > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d unreachable declarations or stale allowlist entries\n", len(lines))
		os.Exit(1)
	}
}

// pass is one build's type-checked module and the graph of its uses.
type pass struct {
	ctxt  build.Context
	fset  *token.FileSet
	std   types.Importer
	mod   string
	pkgs  map[string]*types.Package // by import path
	edges map[string][]string       // declaration → the declarations it uses
	decls map[string]token.Pos
	iface map[string]bool // method names that an interface declares
}

// visit checks the package in each directory of the module.
func (p *pass) visit(dir string, d fs.DirEntry, err error) error {
	if err != nil || !d.IsDir() {
		return err
	}
	if name := d.Name(); dir != "." && (name == "testdata" || name[0] == '.' || name[0] == '_') {
		return filepath.SkipDir
	}
	var noGo *build.NoGoError
	if _, err = p.Import(path.Join(p.mod, filepath.ToSlash(dir))); errors.As(err, &noGo) {
		return nil
	}
	return err
}

// Import checks a module package once, from this build's non-test files,
// and hands every other path to the standard-library importer.
func (p *pass) Import(importPath string) (*types.Package, error) {
	if importPath != p.mod && !strings.HasPrefix(importPath, p.mod+"/") {
		return p.std.Import(importPath)
	}
	if pkg, ok := p.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir := "." + strings.TrimPrefix(importPath, p.mod)
	bp, err := p.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: p}).Check(importPath, p.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		p.graph(info, f)
	}
	p.pkgs[importPath] = pkg
	return pkg, nil
}

// key names a module's top-level declaration, "" for anything else: its
// directory, with internal/ dropped, then "Name" or "Type.Method".
func (p *pass) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path()+"/", p.mod+"/") {
		return ""
	}
	var recv *types.Var
	if fn, ok := obj.(*types.Func); ok {
		recv = fn.Origin().Type().(*types.Signature).Recv()
	}
	if recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
			return p.key(named.Origin().Obj()) + "." + obj.Name()
		}
		return "" // an interface's own method
	}
	if v, ok := obj.(*types.Var); (ok && v.IsField()) || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), p.mod+"/"), "internal/") + "." + obj.Name()
}

// uses adds an edge from each of froms to every declaration node names.
func (p *pass) uses(info *types.Info, node ast.Node, froms ...string) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if to := p.key(info.Uses[n]); to != "" {
				for _, from := range froms {
					p.edges[from] = append(p.edges[from], to)
				}
			}
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					p.iface[name.Name] = true
				}
			}
		}
		return true
	})
}

// graph records a file's declarations and what each uses.
func (p *pass) graph(info *types.Info, f *ast.File) {
	declare := func(id *ast.Ident) string {
		if k := p.key(info.Defs[id]); k != "" {
			p.decls[k] = id.Pos()
			return k
		}
		return initRoot // the blank identifier
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			k := initRoot
			if name := d.Name.Name; d.Recv != nil || name != "init" && (name != "main" || f.Name.Name != "main") {
				k = declare(d.Name)
			}
			p.uses(info, d, k)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					p.uses(info, s, declare(s.Name))
				case *ast.ValueSpec:
					var keys []string
					for _, name := range s.Names {
						keys = append(keys, declare(name))
					}
					if s.Type != nil {
						p.uses(info, s.Type, keys...)
					}
					if d.Tok == token.VAR { // initializers run whether or not the variable is read
						keys = []string{initRoot}
					}
					for _, v := range s.Values {
						p.uses(info, v, keys...)
					}
				}
			}
		}
	}
}

// live returns every declaration the roots reach.
func (p *pass) live() map[string]bool {
	for _, name := range stdMethods {
		p.iface[name] = true
	}
	for k := range p.decls { // "T.M" hangs off "T"; a function off its directory, never a declaration
		if i := strings.LastIndexByte(k, '.'); p.iface[k[i+1:]] {
			p.edges[k[:i]] = append(p.edges[k[:i]], k)
		}
	}
	stack := []string{initRoot}
	for _, decls := range allowlist {
		stack = append(stack, decls...)
	}
	live := map[string]bool{}
	for len(stack) > 0 {
		key := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !live[key] {
			live[key] = true
			stack = append(stack, p.edges[key]...)
		}
	}
	return live
}
