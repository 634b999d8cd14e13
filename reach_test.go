package bcp_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachCommands are the commands README.md's layout table promises. Each
// one's main is a root of the reach walk; a command not listed here is
// checked like any other code, so nothing reaches it.
var reachCommands = []string{"bcpchaos", "bcplive", "bcpsim", "bcptrace", "benchpair"}

// reachExempt lists the declarations no program reaches that stay, each with
// its reason. A key is a package directory (every declaration in it), or the
// directory's last element and a name: pkg.Name, or pkg.Type.Method.
var reachExempt = map[string]string{
	"internal/testhost":                "a test helper that the tests of several packages import, so it cannot live in one package's _test.go",
	"trace.ReadJSONL":                  "the golden trace's reader, used by the tests of trace and experiment",
	"conformance.Checker.GammaChecked": "tests read it to prove the Γ rule ran, on every recovery the transactional trial says is fast",
	"rcc.Endpoint.Stats":               "the RCC tests' oracle; ROADMAP 3(c) is to give it a reader",
	"bcpd.ChaosTransport.Stats":        "the chaos transport tests' oracle: what the transport dropped, duplicated, corrupted and delayed",
	"bcpd.Network.TeardownConnection":  "§4.4 teardown through the protocol; bcpd's tests drive it, and ROADMAP 2(b) is to give it a chaos caller",
}

// stdInterfaceMethods are method names that standard-library interfaces
// call (fmt, errors, sort, container/heap, encoding/json). The loader gives
// the standard library no declarations, so these cannot be read from it the
// way the module's own interfaces are.
var stdInterfaceMethods = []string{
	"String", "Error", "Len", "Less", "Swap", "Push", "Pop", "MarshalJSON", "UnmarshalJSON",
}

// reachDecl is one checked declaration and what the walk needs of it.
type reachDecl struct {
	topDecl
	pos   token.Position
	lines int
	recv  *types.TypeName // a method's receiver type
	typ   *types.TypeName // what a type declaration declares
}

// TestEveryDeclarationIsReached fails on a declaration that no program
// reaches: delete it, move it into the _test.go file of the one package that
// uses it, give it a product caller, or list it in reachExempt with the
// reason it stays.
//
// The roots are the main of every command in reachCommands and of every
// example, every declaration in bench/, every init, the facade's own
// functions, vars, consts and type names, and the methods README.md's go
// blocks select, resolved by type (readmeCalls): the API the README shows,
// not every method of that name the aliased types happen to carry. From a reached
// declaration the walk follows every identifier it uses. A method is also
// reached once its receiver type is, when an interface anywhere in the
// module (a literal included) or in stdInterfaceMethods has a method of its
// name: a call through an interface reaches every method of that name.
func TestEveryDeclarationIsReached(t *testing.T) {
	pc := loadProductCode(t)

	decls := map[types.Object]*reachDecl{}
	methods := map[*types.TypeName][]*types.Func{}
	var all []*reachDecl
	ifaceNames := map[string]bool{}
	for _, n := range stdInterfaceMethods {
		ifaceNames[n] = true
	}
	for dir, files := range pc.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ifaceNames[name.Name] = true
						}
					}
				}
				return true
			})
			for _, td := range topDecls(dir, f) {
				if len(td.names) == 1 && td.names[0].Name == "_" {
					continue // var _ T = ...: a compile-time assertion
				}
				start, end := pc.fset.Position(td.from.Pos()), pc.fset.Position(td.node.End())
				d := &reachDecl{topDecl: td, pos: start, lines: end.Line - start.Line + 1}
				for _, n := range td.names {
					if o := pc.info.Defs[n]; o != nil {
						decls[o] = d
					}
				}
				switch o := pc.info.Defs[td.names[0]].(type) {
				case *types.Func:
					if recv := o.Type().(*types.Signature).Recv(); recv != nil {
						rt := recv.Type()
						if p, ok := rt.(*types.Pointer); ok {
							rt = p.Elem()
						}
						d.recv = rt.(*types.Named).Obj()
						methods[d.recv] = append(methods[d.recv], o)
					}
				case *types.TypeName:
					d.typ = o
				}
				all = append(all, d)
			}
		}
	}

	reached := map[*reachDecl]bool{}
	var queue []*reachDecl
	reach := func(d *reachDecl) {
		if d != nil && !reached[d] {
			reached[d] = true
			queue = append(queue, d)
		}
	}
	reachObj := func(o types.Object) {
		if fn, ok := o.(*types.Func); ok {
			o = fn.Origin()
		}
		reach(decls[o])
	}

	for _, d := range all {
		name := d.names[0].Name
		isMain := name == "main" && d.recv == nil
		switch {
		case d.dir == "bench" || strings.HasPrefix(d.dir, "bench/"):
			reach(d)
		case name == "init" && d.recv == nil:
			reach(d)
		case isMain && strings.HasPrefix(d.dir, "examples/"):
			reach(d)
		case isMain && strings.HasPrefix(d.dir, "cmd/") && slices.Contains(reachCommands, path.Base(d.dir)):
			reach(d)
		}
	}
	for _, cmd := range reachCommands {
		if pc.pkgs["cmd/"+cmd] == nil {
			t.Errorf("reachCommands lists %s, which is not a command under cmd/", cmd)
		}
	}
	facade := pc.pkgs["."].Scope()
	for _, name := range facade.Names() {
		if o := facade.Lookup(name); o.Exported() {
			reachObj(o)
		}
	}
	for fn := range readmeCalls(t, pc) {
		reachObj(fn)
	}

	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if d.recv != nil {
			reachObj(d.recv)
		}
		if d.typ != nil {
			for _, m := range methods[d.typ] {
				if ifaceNames[m.Name()] {
					reachObj(m)
				}
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := pc.info.Uses[id]; o != nil {
					reachObj(o)
				}
			}
			return true
		})
	}

	var unreached []*reachDecl
	lines, exempted := 0, map[string]bool{}
	for _, d := range all {
		if reached[d] {
			continue
		}
		if _, ok := reachExempt[d.dir]; ok {
			exempted[d.dir] = true
			continue
		}
		if _, ok := reachExempt[d.key]; ok {
			exempted[d.key] = true
			continue
		}
		unreached = append(unreached, d)
		lines += d.lines
	}
	sort.Slice(unreached, func(i, j int) bool {
		a, b := unreached[i].pos, unreached[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, d := range unreached {
		t.Errorf("%s:%d: %s (%d lines) is reached by no command, example, bench/ workload, facade export or README call", d.pos.Filename, d.pos.Line, d.key, d.lines)
	}
	if len(unreached) > 0 {
		t.Logf("unreached: %d lines in %d declarations", lines, len(unreached))
	}
	for key, why := range reachExempt {
		if !exempted[key] {
			t.Errorf("reachExempt lists %s (%s), which is reached or does not exist", key, why)
		}
	}
}

// topDecl is one top-level declaration: a function, a method, a type, one
// var or const spec, or a whole const block that uses iota. Its key is
// pkgKey(dir) and its name: pkg.Name, or pkg.Type.Method for a method.
type topDecl struct {
	key   string
	dir   string
	node  ast.Node     // the declaration; for a spec, the spec alone
	from  ast.Node     // where its lines start: at its doc comment, if it has one
	names []*ast.Ident // what it declares, the key's name first
}

// topDecls returns the declarations of file f of package directory dir,
// imports left out.
func topDecls(dir string, f *ast.File) []topDecl {
	pkg := pkgKey(dir)
	var ds []topDecl
	add := func(node, from ast.Node, name string, names ...*ast.Ident) {
		ds = append(ds, topDecl{key: pkg + "." + name, dir: dir, node: node, from: from, names: names})
	}
	for _, decl := range f.Decls {
		switch x := decl.(type) {
		case *ast.FuncDecl:
			name := x.Name.Name
			if x.Recv != nil {
				name = baseTypeName(x.Recv.List[0].Type) + "." + name
			}
			add(x, withDoc(x.Doc, x), name, x.Name)
		case *ast.GenDecl:
			if x.Tok == token.IMPORT {
				continue
			}
			if x.Tok == token.CONST && usesIota(x) {
				var names []*ast.Ident
				for _, spec := range x.Specs {
					names = append(names, spec.(*ast.ValueSpec).Names...)
				}
				add(x, withDoc(x.Doc, x), names[0].Name, names...)
				continue
			}
			for _, spec := range x.Specs {
				from := withDoc(x.Doc, x) // one spec, no parentheses
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if x.Lparen.IsValid() {
						from = withDoc(s.Doc, s)
					}
					add(s, from, s.Name.Name, s.Name)
				case *ast.ValueSpec:
					if x.Lparen.IsValid() {
						from = withDoc(s.Doc, s)
					}
					add(s, from, s.Names[0].Name, s.Names...)
				}
			}
		}
	}
	return ds
}

// pkgKey is how a key names the package in directory dir: the directory's
// last element, "bcp" for the root.
func pkgKey(dir string) string {
	if dir == "." {
		return "bcp"
	}
	return path.Base(dir)
}

// usesIota reports whether a const block counts up from iota: one
// declaration, however many names it gives.
func usesIota(g *ast.GenDecl) bool {
	found := false
	ast.Inspect(g, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// readmeCalls returns the methods README.md's ```go blocks select
// (mgr.Establish, conn.Primary.Path.Links, rt.Post): the facade's API. The
// blocks are type-checked in order as one function body importing the
// facade, each later block nested in the one before so it sees the
// variables they declare, and a method counts only where a selection
// resolves to it, not by its name. The blocks import only the facade, so a
// standard-library name (time.Second) stays undefined; type errors are
// ignored, as in loadProductCode. A block that does not parse fails the
// test at its line.
func readmeCalls(t *testing.T, pc *productCode) map[*types.Func]bool {
	t.Helper()
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	blocks := 0
	lines := strings.Split(string(raw), "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```go" {
			continue
		}
		start := i + 1
		for i = start; i < len(lines) && strings.TrimSpace(lines[i]) != "```"; i++ {
		}
		if i == len(lines) {
			t.Fatalf("README.md:%d: the go block is not closed", start)
		}
		// The line directive makes a parse error name README.md's line.
		block := fmt.Sprintf("//line README.md:%d\n%s\n", start+1, strings.Join(lines[start:i], "\n"))
		if _, err := parser.ParseFile(token.NewFileSet(), "", "package p\nfunc _() {\n"+block+"}\n", parser.SkipObjectResolution); err != nil {
			t.Errorf("a README.md go block does not parse as a function body: %v", err)
			continue
		}
		body.WriteString("{\n" + block)
		blocks++
	}
	src := fmt.Sprintf("package readme\nimport bcp %q\nfunc _() {\n%s%s}\n", modulePath, body.String(), strings.Repeat("}\n", blocks))
	f, err := parser.ParseFile(pc.fset, "README.md", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("README.md's go blocks do not parse together: %v", err)
	}
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: pc, Error: func(error) {}}
	conf.Check("readme", pc.fset, []*ast.File{f}, info)
	calls := map[*types.Func]bool{}
	for _, sel := range info.Selections {
		if fn, ok := sel.Obj().(*types.Func); ok {
			calls[fn] = true
		}
	}
	if len(calls) == 0 {
		t.Fatal("README.md has no go block that selects a method")
	}
	return calls
}

// withDoc returns where a declaration's lines start: at its doc comment, if
// it has one.
func withDoc(doc *ast.CommentGroup, n ast.Node) ast.Node {
	if doc != nil {
		return doc
	}
	return n
}
