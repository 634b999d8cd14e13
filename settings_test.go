package bcp_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// settingStructs are the configuration structs whose every exported field
// must be a real choice: product code (non-test Go under internal/, cmd/ or
// bench/) writes it somewhere other than a Default* constructor, or
// oneValueExempt says why it stays. A field only ever left at its default is
// a constant that doubles the configurations tests and chaos runs must cover.
var settingStructs = []struct{ dir, name string }{
	{"internal/core", "Config"},
	{"internal/routing", "Constraint"},
	{"internal/bcpd", "Config"},
	{"internal/bcpd", "ChaosParams"},
	{"internal/experiment", "StormWideConfig"},
	{"internal/chaos", "Options"},
	{"internal/rtchan", "TrafficSpec"},
	{"internal/rcc", "Params"},
	{"internal/conformance", "Params"},
	{"internal/bcpd", "LinkChaos"},
	{"internal/chaos", "RunOptions"},
	{"internal/chaos", "TopoSpec"},
	{"internal/chaos", "ConnSpec"},
	{"internal/chaos", "ChaosSpec"},
	{"internal/workload", "HotSpotConfig"},
	{"internal/experiment", "Options"},
	{"internal/experiment", "TraceScenario"},
}

// oneValueExempt lists the fields of settingStructs that no product code
// writes, each with the reason it is kept.
var oneValueExempt = map[string]string{
	"bcpd.Config.PriorityDelayUnit":                 "§4.3 delayed activation; chaos episodes are to draw it (ROADMAP 2(a))",
	"bcpd.Config.AllowPreemption":                   "§4.3 preemption; chaos episodes are to draw it (ROADMAP 2(a))",
	"bcpd.Config.HeartbeatInterval":                 "heartbeat detection; the heartbeat chaos class is to set it (ROADMAP 2(c))",
	"bcpd.Config.RCC":                               "bench/ reads it to derive its bounds",
	"bcpd.Config.PropDelay":                         "bench/ reads it to derive its bounds",
	"bcpd.Config.DataMsgSize":                       "bench/ reads it to derive its bounds",
	"experiment.StormWideConfig.PerMessageDispatch": "the per-message reference engine the batched one is held equal to",
	"rtchan.TrafficSpec.SlackHops":                  "the paper's hop rule; Figure 1's scenario sets it to 1",
	"rcc.Params.SMax":                               "bench/ reads it; the counted Γ bound holds at any frame size, so no run provisions it",
	"rcc.Params.RMax":                               "bench/ reads it to derive its bounds",
	"rcc.Params.AckDelay":                           "bench/ reads it to derive its settle time",
}

// productCode type-checks the non-test Go of the module from source: the
// root package, internal/, cmd/, bench/ and examples/. Standard-library
// imports resolve to empty packages and the errors that leaves are ignored:
// a field write or a reference needs only the types this module declares.
type productCode struct {
	fset  *token.FileSet
	pkgs  map[string]*types.Package // by directory; "." is the root package
	files map[string][]*ast.File
	info  *types.Info
}

const modulePath = "github.com/rtcl/bcp"

// loadProductCode loads the root package and every package directory under
// internal/, cmd/, bench/ and examples/.
func loadProductCode(t *testing.T) *productCode {
	t.Helper()
	pc := &productCode{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	if _, err := pc.load("."); err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{"internal", "cmd", "bench", "examples"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			_, err = pc.load(filepath.ToSlash(dir))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pc
}

func (pc *productCode) Import(importPath string) (*types.Package, error) {
	if importPath == modulePath {
		return pc.load(".")
	}
	if rel, ok := strings.CutPrefix(importPath, modulePath+"/"); ok {
		return pc.load(rel)
	}
	p := types.NewPackage(importPath, path.Base(importPath))
	p.MarkComplete()
	return p, nil
}

func (pc *productCode) load(dir string) (*types.Package, error) {
	if p, ok := pc.pkgs[dir]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(pc.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	importPath := modulePath
	if dir != "." {
		importPath += "/" + dir
	}
	conf := types.Config{Importer: pc, Error: func(error) {}}
	p, _ := conf.Check(importPath, pc.fset, files, pc.info)
	pc.pkgs[dir], pc.files[dir] = p, files
	return p, nil
}

// fieldWrites returns every struct field that the Go under internal/, cmd/
// or bench/ writes outside a Default* constructor: as the selector on the
// left of an assignment or an increment, behind an address-of, or as a
// composite literal key. The facade and examples/ are not counted: an
// example that sets a field shows it to a reader, and the settings checked
// here are the ones the commands and the benchmark run with.
func (pc *productCode) fieldWrites() map[*types.Var]bool {
	written := map[*types.Var]bool{}
	field := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if s := pc.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				written[s.Obj().(*types.Var)] = true
			}
		}
	}
	for dir, files := range pc.files {
		if dir == "." || strings.HasPrefix(dir, "examples") {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					return !strings.HasPrefix(n.Name.Name, "Default")
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						field(lhs)
					}
				case *ast.IncDecStmt:
					field(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(n.X)
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						if v, ok := pc.info.Uses[key].(*types.Var); ok && v.IsField() {
							written[v] = true
						}
					}
				}
				return true
			})
		}
	}
	return written
}

// TestConfigFieldsHaveProductSetters fails on a setting that product code
// never moves from its default: delete it and write the value as a constant,
// or list it in oneValueExempt with the reason it stays.
func TestConfigFieldsHaveProductSetters(t *testing.T) {
	pc := loadProductCode(t)
	written := pc.fieldWrites()

	declared := map[string]bool{}
	for _, s := range settingStructs {
		obj := pc.pkgs[s.dir].Scope().Lookup(s.name)
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("%s.%s is not a struct", s.dir, s.name)
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			key := path.Base(s.dir) + "." + s.name + "." + f.Name()
			declared[key] = true
			switch why, exempt := oneValueExempt[key]; {
			case !written[f] && !exempt:
				t.Errorf("%s is never written in internal/, cmd/ or bench/ outside a Default* constructor: make it a constant", key)
			case written[f] && exempt:
				t.Errorf("oneValueExempt lists %s (%s), which product code now writes", key, why)
			}
		}
	}
	for key, why := range oneValueExempt {
		if !declared[key] {
			t.Errorf("oneValueExempt lists %s (%s), which is not a field of a checked struct", key, why)
		}
	}
}
