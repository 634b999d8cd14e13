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
	// A backticked span, and within it pkg.Ident.
	docCodeRE  = regexp.MustCompile("`[^`\n]+`")
	docIdentRE = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)`)
	// A cited test, fuzz target or benchmark; a trailing * or … makes it a
	// prefix.
	docTestRE = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*)(\*|…)?`)
)

// goDecls is what the repository's Go declares: the top-level names of each
// package directory, and every Test/Fuzz/Benchmark function anywhere.
type goDecls struct {
	names map[string]map[string]bool // dir → top-level name
	tests map[string]bool
}

func loadGoDecls(t *testing.T) *goDecls {
	t.Helper()
	d := &goDecls{names: map[string]map[string]bool{}, tests: map[string]bool{}}
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
				if x.Recv == nil {
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

// TestDocsNameWhatExists holds DESIGN.md and README.md to the tree: every
// internal/, cmd/ and examples/ path they name exists; every backticked
// pkg.Ident whose pkg is a package under internal/ or cmd/ is declared at
// the top level there; and every cited Test…/Fuzz…/Benchmark… function is
// declared somewhere in the repository (a trailing * or … cites a prefix).
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
				for _, m := range docIdentRE.FindAllStringSubmatch(span, -1) {
					pkg, name := m[1], m[2]
					dir, ok := pkgDir(pkg)
					// Skip file names (trace.go) and bench/ metric names
					// (realtime.exec_wait_us_p95).
					if !ok || name == "go" || strings.Contains(name, "_") && strings.ToLower(name) == name {
						continue
					}
					if !d.names[dir][name] {
						at("%s.%s is not declared in %s", pkg, name, dir)
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
