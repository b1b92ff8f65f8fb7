package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DefaultSimCorePackages are the import-path prefixes of the sim-core
// packages: the code whose behavior must be a pure function of (config,
// seed). A prefix matches the package itself and every subpackage.
var DefaultSimCorePackages = []string{
	"supersim/internal/sim",
	"supersim/internal/router",
	"supersim/internal/netiface",
	"supersim/internal/channel",
	"supersim/internal/workload",
	"supersim/internal/traffic",
	"supersim/internal/routing",
	"supersim/internal/network",
	"supersim/internal/congestion",
	"supersim/internal/types",
	// Snapshot encoding is compared byte-for-byte by the import/export
	// equivalence tests, so the codec must never iterate a raw Go map.
	"supersim/internal/snapshot",
	// Task journals are compared byte-for-byte by the fixed-clock goldens:
	// outside its two sanctioned seams (the Clock constructor and the
	// runner's lock discipline) the package must not read the wall clock,
	// iterate raw maps into output, or spawn ad-hoc goroutines.
	"supersim/internal/taskrun",
}

// DefaultWallClockAllow lists file-path suffixes exempt from the wall-clock
// check: the progress monitor reads time.Now to report ticks/sec and ETA,
// which is presentation-only and never feeds simulation state.
var DefaultWallClockAllow = []string{
	"internal/sim/progress.go",
	// taskrun's injectable-clock seam: WallClock() is the package's only
	// time.Now read; journals under test use FixedClock instead.
	"taskrun/clock.go",
}

// DefaultConcurrencyAllow lists file-path suffixes exempt from the
// concurrency check: the conservative parallel engine, whose goroutines are
// the one sanctioned concurrency in sim-core (its determinism is proven by
// the serial/parallel conformance oracle, not by absence of threads), and the
// progress monitor's expvar once-guard (observation-only).
var DefaultConcurrencyAllow = []string{
	"internal/sim/parallel.go",
	"internal/sim/progress.go",
	// The task runner's scheduler: one mutex + cond and one goroutine per
	// running task, with every probe call serialized under the lock (the
	// journal race test enforces the discipline).
	"taskrun/taskrun.go",
}

// Determinism enforces that sim-core packages stay bit-exact reproducible:
//
//   - no wall-clock reads (time.Now, time.Since, time.Until);
//   - no draws from the global math/rand or math/rand/v2 source — components
//     must use the seeded simulation PRNG (sim.Simulator.Rand);
//   - no map-range iteration whose body feeds simulation state, event
//     scheduling, or emitted output. A map-range loop is accepted only when
//     its body is provably order-insensitive: commutative accumulation
//     (x++, x += e, x |= e, ...), deletes, or writes to another map keyed by
//     the iteration key. Everything else must iterate over sorted keys.
//   - no ad-hoc concurrency: goroutine launches and imports of sync or
//     sync/atomic are confined to the conservative parallel engine
//     (internal/sim/parallel.go). Anywhere else in sim-core, shared-memory
//     concurrency makes event order depend on the goroutine schedule.
type Determinism struct {
	// SimCore holds the import-path prefixes the rule applies to.
	SimCore []string
	// WallClockAllow holds file-path suffixes exempt from the wall-clock
	// check (observation-only reporters).
	WallClockAllow []string
	// ConcurrencyAllow holds file-path suffixes exempt from the goroutine
	// and sync-import checks (the sanctioned synchronizer).
	ConcurrencyAllow []string
}

// NewDeterminism returns the analyzer with the repo's default package set.
func NewDeterminism() *Determinism {
	return &Determinism{
		SimCore:          DefaultSimCorePackages,
		WallClockAllow:   DefaultWallClockAllow,
		ConcurrencyAllow: DefaultConcurrencyAllow,
	}
}

// Name implements Analyzer.
func (*Determinism) Name() string { return RuleDeterminism }

// inScope reports whether the import path is sim-core.
func (a *Determinism) inScope(path string) bool {
	for _, pre := range a.SimCore {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

func (a *Determinism) wallClockAllowed(file string) bool {
	for _, suf := range a.WallClockAllow {
		if strings.HasSuffix(file, suf) {
			return true
		}
	}
	return false
}

func (a *Determinism) concurrencyAllowed(file string) bool {
	for _, suf := range a.ConcurrencyAllow {
		if strings.HasSuffix(file, suf) {
			return true
		}
	}
	return false
}

// Check implements Analyzer.
func (a *Determinism) Check(p *Package) []Diagnostic {
	if !a.inScope(p.ImportPath) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		allowConc := a.concurrencyAllowed(p.Position(f.Pos()).Filename)
		if !allowConc {
			for _, imp := range f.Imports {
				switch imp.Path.Value {
				case `"sync"`, `"sync/atomic"`:
					diags = append(diags, Diagnostic{
						Rule: RuleDeterminism, Pos: p.Position(imp.Pos()),
						Message: fmt.Sprintf(
							"import of %s in sim-core package %s — shared-memory concurrency belongs in the conservative engine (internal/sim/parallel.go)",
							imp.Path.Value, p.ImportPath),
					})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if d, ok := a.checkSelector(p, x); ok {
					diags = append(diags, d)
				}
			case *ast.RangeStmt:
				if d, ok := a.checkRange(p, x); ok {
					diags = append(diags, d)
				}
			case *ast.GoStmt:
				if !allowConc {
					diags = append(diags, Diagnostic{
						Rule: RuleDeterminism, Pos: p.Position(x.Go),
						Message: fmt.Sprintf(
							"goroutine launched in sim-core package %s — event order must not depend on the goroutine schedule; concurrency belongs in the conservative engine (internal/sim/parallel.go)",
							p.ImportPath),
					})
				}
			}
			return true
		})
	}
	return diags
}

// checkSelector flags wall-clock reads and global math/rand draws.
func (a *Determinism) checkSelector(p *Package, sel *ast.SelectorExpr) (Diagnostic, bool) {
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return Diagnostic{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return Diagnostic{}, false // method: rand.Rand methods etc. are fine
	}
	pos := p.Position(sel.Pos())
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			if a.wallClockAllowed(pos.Filename) {
				return Diagnostic{}, false
			}
			return Diagnostic{
				Rule: RuleDeterminism, Pos: pos,
				Message: fmt.Sprintf(
					"wall-clock read time.%s in sim-core package %s — results must be a pure function of (config, seed)",
					fn.Name(), p.ImportPath),
			}, true
		}
	case "math/rand", "math/rand/v2":
		// Package-level draw functions use the process-global, run-dependent
		// source. Constructors (New, NewPCG, NewSource, ...) take explicit
		// seeds and are fine.
		if strings.HasPrefix(fn.Name(), "New") {
			return Diagnostic{}, false
		}
		return Diagnostic{
			Rule: RuleDeterminism, Pos: pos,
			Message: fmt.Sprintf(
				"global rand.%s in sim-core package %s — use the seeded simulation PRNG (sim.Simulator.Rand)",
				fn.Name(), p.ImportPath),
		}, true
	}
	return Diagnostic{}, false
}

// checkRange flags map-range loops whose body is not provably
// order-insensitive.
func (a *Determinism) checkRange(p *Package, rs *ast.RangeStmt) (Diagnostic, bool) {
	t := p.TypeOf(rs.X)
	if t == nil {
		return Diagnostic{}, false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return Diagnostic{}, false
	}
	var key *ast.Ident
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		key = id
	}
	if blockOrderInsensitive(rs.Body, key) {
		return Diagnostic{}, false
	}
	return Diagnostic{
		Rule: RuleDeterminism, Pos: p.Position(rs.Range),
		Message: fmt.Sprintf(
			"map iteration order feeds simulation state in sim-core package %s — iterate over sorted keys",
			p.ImportPath),
	}, true
}

// blockOrderInsensitive reports whether every statement of a map-range body
// is order-commutative, so the nondeterministic iteration order cannot be
// observed.
func blockOrderInsensitive(b *ast.BlockStmt, key *ast.Ident) bool {
	for _, st := range b.List {
		if !stmtOrderInsensitive(st, key) {
			return false
		}
	}
	return true
}

func stmtOrderInsensitive(st ast.Stmt, key *ast.Ident) bool {
	switch s := st.(type) {
	case *ast.IncDecStmt:
		return sideEffectFree(s.X)
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative accumulation into a fixed location (subtraction is
			// addition of the negation, so -= commutes too).
			return len(s.Lhs) == 1 && sideEffectFree(s.Lhs[0]) && sideEffectFree(s.Rhs[0])
		case token.ASSIGN:
			// m2[k] = v writes a distinct key per iteration (range keys are
			// unique), so order cannot be observed.
			if key == nil || len(s.Lhs) != 1 || !sideEffectFree(s.Rhs[0]) {
				return false
			}
			idx, ok := s.Lhs[0].(*ast.IndexExpr)
			if !ok || !sideEffectFree(idx.X) {
				return false
			}
			kid, ok := idx.Index.(*ast.Ident)
			return ok && kid.Name == key.Name
		}
		return false
	case *ast.ExprStmt:
		// delete(m, k) removals commute with each other.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "delete" {
			return false
		}
		for _, arg := range call.Args {
			if !sideEffectFree(arg) {
				return false
			}
		}
		return true
	case *ast.IfStmt:
		if s.Init != nil || !sideEffectFree(s.Cond) {
			return false
		}
		if !blockOrderInsensitive(s.Body, key) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return blockOrderInsensitive(e, key)
		case *ast.IfStmt:
			return stmtOrderInsensitive(e, key)
		}
		return false
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE && s.Label == nil
	}
	return false
}

// sideEffectFree reports whether evaluating the expression cannot observe or
// affect iteration order: no calls, sends, or receives.
func sideEffectFree(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr, *ast.FuncLit:
			ok = false
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ok = false
				return false
			}
		}
		return ok
	})
	return ok
}
