package bcp_test

import (
	"go/ast"
	"go/token"
	"go/types"
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
	"conformance.Checker.GammaChecked": "tests read it to prove the Γ rule ran; ROADMAP 12's acceptance reads it",
	"rcc.Endpoint.Stats":               "the RCC tests' oracle; ROADMAP 3(c) is to give it a reader",
}

// stdInterfaceMethods are method names that standard-library interfaces
// call (fmt, errors, sort, container/heap, encoding/json). The loader gives
// the standard library no declarations, so these cannot be read from it the
// way the module's own interfaces are.
var stdInterfaceMethods = []string{
	"String", "Error", "Len", "Less", "Swap", "Push", "Pop", "MarshalJSON", "UnmarshalJSON",
}

// reachDecl is one checked declaration: a function, a method, a type, one
// var or const spec, or a whole const block that uses iota.
type reachDecl struct {
	key   string
	dir   string
	pos   token.Position
	lines int
	node  ast.Node // walked for references once the declaration is reached
	name  string
	recv  *types.TypeName // a method's receiver type
	typ   *types.TypeName // what a type declaration declares
}

// TestEveryDeclarationIsReached fails on a declaration that no program
// reaches: delete it, move it into the _test.go file of the one package that
// uses it, give it a product caller, or list it in reachExempt with the
// reason it stays.
//
// The roots are the main of every command in reachCommands and of every
// example, every declaration in bench/, every init, and the facade's
// exports with the exported methods of each type it aliases. From a reached
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
	add := func(dir string, node, from ast.Node, name string, objs ...types.Object) *reachDecl {
		start, end := pc.fset.Position(from.Pos()), pc.fset.Position(node.End())
		pkg := path.Base(dir)
		if dir == "." {
			pkg = "bcp"
		}
		d := &reachDecl{key: pkg + "." + name, dir: dir, pos: start, lines: end.Line - start.Line + 1, node: node, name: name}
		for _, o := range objs {
			if o != nil {
				decls[o] = d
			}
		}
		all = append(all, d)
		return d
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
			for _, decl := range f.Decls {
				switch x := decl.(type) {
				case *ast.FuncDecl:
					from := withDoc(x.Doc, x)
					fn := pc.info.Defs[x.Name].(*types.Func)
					recv := fn.Type().(*types.Signature).Recv()
					if recv == nil {
						add(dir, x, from, x.Name.Name, fn)
						continue
					}
					rt := recv.Type()
					if p, ok := rt.(*types.Pointer); ok {
						rt = p.Elem()
					}
					tn := rt.(*types.Named).Obj()
					add(dir, x, from, tn.Name()+"."+x.Name.Name, fn).recv = tn
					methods[tn] = append(methods[tn], fn)
				case *ast.GenDecl:
					if x.Tok == token.IMPORT {
						continue
					}
					if x.Tok == token.CONST && usesIota(x) {
						var objs []types.Object
						for _, spec := range x.Specs {
							for _, n := range spec.(*ast.ValueSpec).Names {
								objs = append(objs, pc.info.Defs[n])
							}
						}
						add(dir, x, withDoc(x.Doc, x), x.Specs[0].(*ast.ValueSpec).Names[0].Name, objs...)
						continue
					}
					for _, spec := range x.Specs {
						from := withDoc(x.Doc, x) // one spec, no parentheses
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if x.Lparen.IsValid() {
								from = withDoc(s.Doc, s)
							}
							tn := pc.info.Defs[s.Name].(*types.TypeName)
							add(dir, s, from, s.Name.Name, tn).typ = tn
						case *ast.ValueSpec:
							if x.Lparen.IsValid() {
								from = withDoc(s.Doc, s)
							}
							if len(s.Names) == 1 && s.Names[0].Name == "_" {
								continue // var _ T = ...: a compile-time assertion
							}
							var objs []types.Object
							for _, n := range s.Names {
								objs = append(objs, pc.info.Defs[n])
							}
							add(dir, s, from, s.Names[0].Name, objs...)
						}
					}
				}
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
		isMain := d.name == "main" && d.recv == nil
		switch {
		case d.dir == "bench" || strings.HasPrefix(d.dir, "bench/"):
			reach(d)
		case d.name == "init" && d.recv == nil:
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
		o := facade.Lookup(name)
		if !o.Exported() {
			continue
		}
		reachObj(o)
		if _, ok := o.(*types.TypeName); !ok {
			continue
		}
		named, ok := types.Unalias(o.Type()).(*types.Named)
		if !ok {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				reachObj(m)
			}
		}
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
		t.Errorf("%s:%d: %s (%d lines) is reached by no command, example, bench/ workload or facade export", d.pos.Filename, d.pos.Line, d.key, d.lines)
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

// withDoc returns where a declaration's lines start: at its doc comment, if
// it has one.
func withDoc(doc *ast.CommentGroup, n ast.Node) ast.Node {
	if doc != nil {
		return doc
	}
	return n
}
