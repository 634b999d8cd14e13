package bcp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// docFiles are the documents a reader opens before touching the code; every
// package path, identifier and test they name must exist.
var docFiles = []string{"DESIGN.md", "README.md"}

var (
	// A repository path: internal/…, cmd/… or examples/…, not the tail of a
	// longer path, and ending on a name character (so sentence punctuation
	// is not part of it).
	docPathRE = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])(?:\./)?((?:internal|cmd|examples)/[A-Za-z0-9_./-]*[A-Za-z0-9_])`)
	// A backticked span, and within it pkg.Ident and any dotted chain
	// (core.Manager.Establish, Path.Links). File names (recovery.go,
	// BENCHMARK.json) are cut from a span before those two are read.
	docCodeRE  = regexp.MustCompile("`[^`\n]+`")
	docFileRE  = regexp.MustCompile(`[A-Za-z0-9_./-]+\.(?:go|md|json|sh|txt|yml)\b`)
	docIdentRE = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)`)
	docChainRE = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`)
	// A cited test, fuzz target or benchmark; a trailing * or … makes it a
	// prefix.
	docTestRE = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*)(\*|…)?`)
)

// goDecls is what the repository's Go declares: the top-level names of each
// package directory, every Test/Fuzz/Benchmark function anywhere, and the
// fields and methods of every defined type, by type name across packages.
type goDecls struct {
	names   map[string]map[string]bool // dir → top-level name
	tests   map[string]bool
	members map[string]map[string]bool // type name → its fields and methods
}

// member records name as a field or method of the type typ.
func (d *goDecls) member(typ, name string) {
	if d.members[typ] == nil {
		d.members[typ] = map[string]bool{}
	}
	if name != "" {
		d.members[typ][name] = true
	}
}

// baseTypeName is the name of the defined type that a receiver or an
// embedded field names: T for T, *T, pkg.T and T[P].
func baseTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return baseTypeName(x.X)
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return baseTypeName(x.X)
	case *ast.IndexListExpr:
		return baseTypeName(x.X)
	}
	return ""
}

func loadGoDecls(t *testing.T) *goDecls {
	t.Helper()
	d := &goDecls{
		names:   map[string]map[string]bool{},
		tests:   map[string]bool{},
		members: map[string]map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if d.names[dir] == nil {
			d.names[dir] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch x := decl.(type) {
			case *ast.FuncDecl:
				if x.Recv != nil {
					d.member(baseTypeName(x.Recv.List[0].Type), x.Name.Name)
				} else {
					d.names[dir][x.Name.Name] = true
					if docTestRE.MatchString(x.Name.Name) {
						d.tests[x.Name.Name] = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						d.names[dir][s.Name.Name] = true
						if !s.Assign.IsValid() {
							d.typeMembers(s)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							d.names[dir][n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// typeMembers records the fields and interface methods of a type
// declaration; an embedded type is a field by its type's name.
func (d *goDecls) typeMembers(s *ast.TypeSpec) {
	typ := s.Name.Name
	d.member(typ, "")
	var list *ast.FieldList
	switch x := s.Type.(type) {
	case *ast.StructType:
		list = x.Fields
	case *ast.InterfaceType:
		list = x.Methods
	default:
		return
	}
	for _, f := range list.List {
		if len(f.Names) == 0 {
			d.member(typ, baseTypeName(f.Type))
		}
		for _, n := range f.Names {
			d.member(typ, n.Name)
		}
	}
}

// TestDocsNameWhatExists holds DESIGN.md and README.md to the tree: every
// internal/, cmd/ and examples/ path they name exists; every backticked
// pkg.Ident whose pkg is a package under internal/ or cmd/ is declared at
// the top level there; every backticked Type.Member whose Type is a type the
// repository defines names a field or method of a type by that name; and
// every cited Test…/Fuzz…/Benchmark… function is declared somewhere in the
// repository (a trailing * or … cites a prefix).
// A section that outlives the code it describes fails here.
func TestDocsNameWhatExists(t *testing.T) {
	d := loadGoDecls(t)
	pkgDir := func(pkg string) (string, bool) {
		for _, dir := range []string{"internal/" + pkg, "cmd/" + pkg} {
			if d.names[dir] != nil {
				return dir, true
			}
		}
		return "", false
	}
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			at := func(format string, args ...any) {
				t.Errorf("%s:%d: "+format, append([]any{doc, i + 1}, args...)...)
			}
			for _, m := range docPathRE.FindAllStringSubmatch(line, -1) {
				p := m[1]
				// internal/routing.Router names a package and an identifier.
				if j := strings.LastIndex(p, "."); j > strings.LastIndex(p, "/") && unicode.IsUpper(rune(p[j+1])) {
					p = p[:j]
				}
				if _, err := os.Stat(p); err != nil {
					at("%s does not exist", p)
				}
			}
			for _, span := range docCodeRE.FindAllString(line, -1) {
				span = docFileRE.ReplaceAllString(span, " ")
				for _, m := range docIdentRE.FindAllStringSubmatch(span, -1) {
					pkg, name := m[1], m[2]
					dir, ok := pkgDir(pkg)
					// Skip bench/ metric names (realtime.exec_wait_us_p95).
					if !ok || strings.Contains(name, "_") && strings.ToLower(name) == name {
						continue
					}
					if !d.names[dir][name] {
						at("%s.%s is not declared in %s", pkg, name, dir)
					}
				}
				for _, m := range docChainRE.FindAllStringSubmatch(span, -1) {
					parts := strings.Split(m[1], ".")
					for j := 1; j < len(parts); j++ {
						typ, name := parts[j-1], parts[j]
						if d.members[typ] != nil && !d.members[typ][name] {
							at("%s.%s: no type %s has a field or method %s", typ, name, typ, name)
						}
					}
				}
			}
			for _, m := range docTestRE.FindAllStringSubmatch(line, -1) {
				name, prefix := m[1], m[2] != ""
				found := d.tests[name]
				for decl := range d.tests {
					if found || !prefix {
						break
					}
					found = strings.HasPrefix(decl, name)
				}
				if !found {
					at("%s is not a declared test, fuzz target or benchmark", m[0])
				}
			}
		}
	}
}
