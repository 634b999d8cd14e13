package bcp_test

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// ownerKind says what a rule's subjects are and where their uses are found.
type ownerKind int

const (
	// usedObject subjects are declarations of this module, keyed as in
	// reachExempt (pkg.Name, pkg.Type.Member). A use is an identifier that
	// resolves to one, anywhere in product code (loadProductCode's packages).
	usedObject ownerKind = iota
	// usedStd subjects are standard-library names, importpath.Name. A use is
	// a selector on that import, in every .go file, tests included.
	usedStd
	// declaredMethod subjects are method names. A use is a method declaration
	// of that name, in every .go file, tests included; its place is the
	// receiver type (pkg.Type).
	declaredMethod
)

// ownerRule gives one decision one owner: its subjects may be used only in
// the allowed places, each a package directory (every declaration in it) or
// a declaration key (pkg.Name, pkg.Type.Method). why is printed with every
// failure.
type ownerRule struct {
	name     string
	kind     ownerKind
	subjects []string
	allowed  []string
	why      string
}

var ownerRules = []ownerRule{
	{
		name:     "owner",
		subjects: []string{"rcc.Params.RMax"},
		allowed:  []string{"internal/bcpd", "internal/rcc", "bench"},
		why: "D^RCC_max (§5) is derived only by bcpd.Config.HopBound, and the arithmetic cannot be written without R_max; " +
			"rcc paces its own frames by it, and bench/ keeps its copy until ROADMAP 1(c)",
	},
	{
		name:     "key",
		subjects: []string{"sim.Engine.ReserveKey", "sim.Engine.AtKey", "sim.TimerArena.ReserveSeq", "sim.TimerArena.AddKeyed"},
		allowed:  []string{"internal/sim", "internal/sched"},
		why: "an event key is reserved, or an event queued under a reserved key, only by the engine and sched.Link " +
			"(a packet hop's transmit-done is queued only when something waits on it), " +
			"so ROADMAP 6(a)'s seeded tie-break has one reserving caller to re-key",
	},
	{
		name:     "recovery",
		subjects: []string{"bcpd.Network.SourceSwitches"},
		allowed:  []string{"bench", "examples/quickstart"},
		why: "a recovery (§5's service disruption) is derived only by trace.Recoveries, and a crash-to-switch span cannot be written " +
			"without the source's switch log; the quickstart prints the span README's walkthrough shows, " +
			"and bench/ keeps its own copy until ROADMAP 1(c)",
	},
	{
		name:     "muxfail",
		subjects: []string{"trace.KindMuxFailure"},
		allowed:  []string{"internal/trace", "internal/core", "internal/conformance", "cmd/bcptrace"},
		why: "a multiplexing failure (§3.3) is recorded only by core.Manager's claim, which decides every claim and names the link " +
			"that ran out of spare; trace declares the kind, conformance checks it and bcptrace renders it",
	},
	{
		name:     "harness",
		subjects: []string{"conformance.New", "trace.NewFlightRecorder"},
		allowed:  []string{"bcpd.NewChecked", "conformance.Check", "bench"},
		why: "a checked run is assembled only by bcpd.NewChecked: a checker or a flight recorder built anywhere else is a harness " +
			"whose violations carry no events; conformance.Check (bench/'s live check) and bench/'s own checker go with ROADMAP 1(c)",
	},
	{
		name:     "decision",
		subjects: []string{"core.NetworkPlan.simS", "core.piThresholds.qpowTab"},
		allowed:  []string{"core.newPiThresholds", "core.NetworkPlan.simS", "core.NetworkPlan.thrRow"},
		why: "the Π decision (§3.2) is computed in floating point only where the threshold table is built, " +
			"so every admission decision is the integer muxDecide; tests hold the table to the reference",
	},
	{
		name:     "trial",
		subjects: []string{"core.NetworkPlan.trial"},
		allowed:  []string{"core.TrialView.Trial"},
		why: "the failure-trial walk behind Tables 1-3 has one door, TrialView.Trial, the read entry point " +
			"(a serial caller holds one view); live state changes after a failure only through the claim API",
	},
	{
		name:     "spare",
		subjects: []string{"rtchan.Network.SetSpare"},
		allowed:  []string{"core.Manager.settle", "core.Manager.wireLink", "core.Manager.promoteBackup"},
		why: "a spare pool (§3.2, §4.4) is sized only by settle, to spareTarget, the bound CheckMuxInvariants checks; " +
			"wireLink grows a pool at admission or refuses the backup, and promoteBackup shrinks it by the claim " +
			"before rtchan's Promote checks capacity",
	},
	{
		name:     "admit",
		subjects: []string{"core.NetworkPlan.scanLink", "core.Manager.wireLink"},
		allowed:  []string{"core.planContext.scan", "core.Manager.addBackupToLink"},
		why: "a backup joins a link's multiplexing state (§3.2) through one door, addBackupToLink: one scan " +
			"decides its Π membership and wireLink applies it, for establishment, replenishment and rejoin alike",
	},
	{
		name:     "fire",
		subjects: []string{"sim.TimerArena.Pop"},
		allowed:  []string{"sim.Engine.fire", "realtime.Runtime.fireDue"},
		why: "a timer is popped off its arena only by the two firers: sim.Engine.fire under the simulated clock, and realtime's fireDue, " +
			"which the timer goroutine, the actors and Exec all call under the execution lock, " +
			"so a due timer runs in (deadline, sequence) order with both locks held at the pop whoever fires it",
	},
	{
		name:     "wait",
		kind:     usedStd,
		subjects: []string{"syscall.Nanosleep", "syscall.PR_SET_TIMERSLACK"},
		allowed:  []string{"realtime.preciseSleep"},
		why: "a thread waits for a deadline only through realtime.Waiter, whose last stretch is preciseSleep's nanosleep " +
			"at 1 ns timer slack; no other code sleeps on the kernel timer or sets a thread's slack",
	},
	{
		name:     "heap",
		kind:     declaredMethod,
		subjects: []string{"siftDown"},
		allowed:  []string{"sim.TimerArena"},
		why: "sim.TimerArena is the one timer heap under both clocks (sim.Engine and realtime.Runtime each own one), " +
			"and the container/heap oracle in sim's tests covers only that copy",
	},
}

// ownerUse is one use of a rule's subject, at the declaration (or, for a
// declaredMethod rule, the receiver type) key in package directory dir.
type ownerUse struct {
	pos      token.Position
	key, dir string
	subject  string
}

// TestEachDecisionHasOneOwner fails on a use of an ownerRules subject outside
// its rule's allowed places, naming the rule and the declaration; on a
// subject that names nothing in this module; and on an allowed place that
// uses none of its rule's subjects, as a stale reachExempt entry fails.
func TestEachDecisionHasOneOwner(t *testing.T) {
	pc := loadProductCode(t)
	fset, files := parseEveryGoFile(t)
	for _, r := range ownerRules {
		var uses []ownerUse
		verb := "uses"
		switch r.kind {
		case usedObject:
			uses = objectUses(t, pc, r)
		case usedStd:
			uses = stdUses(fset, files, r.subjects)
		case declaredMethod:
			uses, verb = methodDecls(fset, files, r.subjects), "declares"
		}
		slices.SortFunc(uses, func(a, b ownerUse) int {
			return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename), a.pos.Offset-b.pos.Offset)
		})
		placed := map[string]bool{}
		for _, u := range uses {
			switch {
			case slices.Contains(r.allowed, u.key):
				placed[u.key] = true
			case slices.Contains(r.allowed, u.dir):
				placed[u.dir] = true
			default:
				t.Errorf("%s: %s %s %s, which rule %q allows only in %s: %s",
					u.pos, u.key, verb, u.subject, r.name, strings.Join(r.allowed, ", "), r.why)
			}
		}
		for _, p := range r.allowed {
			if !placed[p] {
				t.Errorf("rule %q allows %s, which %s none of %s: take it off the list", r.name, p, verb, strings.Join(r.subjects, ", "))
			}
		}
	}
}

// objectUses returns every identifier in product code that resolves to one
// of r's subjects. A subject that resolves to nothing fails the test.
func objectUses(t *testing.T, pc *productCode, r ownerRule) []ownerUse {
	t.Helper()
	subjects := map[types.Object]string{}
	for _, s := range r.subjects {
		o := pc.lookup(s)
		if o == nil {
			t.Errorf("rule %q names %s, which is not declared in this module", r.name, s)
			continue
		}
		subjects[o] = s
	}
	var uses []ownerUse
	for dir, files := range pc.files {
		for _, f := range files {
			for _, d := range topDecls(dir, f) {
				ast.Inspect(d.node, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					o := pc.info.Uses[id]
					switch x := o.(type) {
					case *types.Func:
						o = x.Origin()
					case *types.Var:
						o = x.Origin()
					}
					if s, ok := subjects[o]; ok {
						uses = append(uses, ownerUse{pc.fset.Position(id.Pos()), d.key, dir, s})
					}
					return true
				})
			}
		}
	}
	return uses
}

// lookup returns the module object a reachExempt-style key names
// (pkg.Name, pkg.Type.Member), or nil.
func (pc *productCode) lookup(key string) types.Object {
	parts := strings.Split(key, ".")
	var pkg *types.Package
	for dir, p := range pc.pkgs {
		if pkgKey(dir) == parts[0] {
			if pkg != nil {
				return nil // two directories share the name
			}
			pkg = p
		}
	}
	if pkg == nil || len(parts) < 2 || len(parts) > 3 {
		return nil
	}
	o := pkg.Scope().Lookup(parts[1])
	if len(parts) == 2 || o == nil {
		return o
	}
	if _, ok := o.(*types.TypeName); !ok {
		return nil
	}
	m, _, _ := types.LookupFieldOrMethod(o.Type(), true, pkg, parts[2])
	return m
}

// parseEveryGoFile parses every .go file of the repository, tests, bench/
// and examples/ included, by package directory. Hidden directories and
// testdata are skipped.
func parseEveryGoFile(t *testing.T) (*token.FileSet, map[string][]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// stdUses returns every selector, in any file, on the import of a subject's
// path that selects the subject's name, however the import is named.
func stdUses(fset *token.FileSet, files map[string][]*ast.File, subjects []string) []ownerUse {
	var uses []ownerUse
	for dir, dirFiles := range files {
		for _, f := range dirFiles {
			local := map[string]string{} // import name to path
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := path.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = p
			}
			for _, d := range topDecls(dir, f) {
				ast.Inspect(d.node, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok {
						if s := local[x.Name] + "." + sel.Sel.Name; slices.Contains(subjects, s) {
							uses = append(uses, ownerUse{fset.Position(sel.Pos()), d.key, dir, s})
						}
					}
					return true
				})
			}
		}
	}
	return uses
}

// methodDecls returns every declaration, in any file, of a method named in
// subjects, keyed by its receiver type.
func methodDecls(fset *token.FileSet, files map[string][]*ast.File, subjects []string) []ownerUse {
	var uses []ownerUse
	for dir, dirFiles := range files {
		for _, f := range dirFiles {
			for _, d := range topDecls(dir, f) {
				if fn, ok := d.node.(*ast.FuncDecl); ok && fn.Recv != nil && slices.Contains(subjects, fn.Name.Name) {
					recv := strings.TrimSuffix(d.key, "."+fn.Name.Name)
					uses = append(uses, ownerUse{fset.Position(fn.Pos()), recv, dir, fn.Name.Name})
				}
			}
		}
	}
	return uses
}
