package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
)

// DefaultFactoryPath is the import path of the smart-object factory package.
const DefaultFactoryPath = "supersim/internal/factory"

// FactoryReg enforces the factory registration convention:
//
//   - every Registry.Register call happens inside an init() (the convention
//     that makes dropping in a new model file sufficient to enable it);
//   - registration names are string literals, unique per registry across the
//     whole build — two models silently claiming one name is only caught at
//     process start of whichever binary links both, and a config typo
//     selecting the wrong one is never caught at all;
//   - every package-level concrete type implementing a factory-registered
//     component interface is actually registered, catching the
//     implemented-but-forgotten model whose config name fails at runtime.
//
// The analyzer is cross-package: Check accumulates registries, registrations
// and candidate types; Finish reports duplicates and unregistered
// implementations. Constructor expressions are resolved structurally (func
// literals and same-package constructor functions, following return
// statements); a registry with a constructor the analyzer cannot resolve is
// excluded from the unregistered-implementation check rather than guessed at.
type FactoryReg struct {
	// FactoryPath is the import path of the package defining Registry.
	FactoryPath string

	regs map[string]*regInfo // key: defining pkg path + "." + var name
	pkgs []*Package
}

type regInfo struct {
	name       string // display name: pkg.Var
	kind       string // registry kind string when statically known
	ifacePkg   string // qualified component interface
	ifaceName  string
	registered map[string]bool             // concrete impls: "pkgpath.Type"
	names      map[string][]token.Position // registration name -> sites
	incomplete bool                        // some ctor unresolvable
}

// NewFactoryReg returns the analyzer with the repo's factory package.
func NewFactoryReg() *FactoryReg {
	return &FactoryReg{FactoryPath: DefaultFactoryPath, regs: map[string]*regInfo{}}
}

// Name implements Analyzer.
func (*FactoryReg) Name() string { return RuleFactoryReg }

// Check implements Analyzer. It records the package for Finish and processes
// its Register calls.
func (a *FactoryReg) Check(p *Package) []Diagnostic {
	a.pkgs = append(a.pkgs, p)
	var diags []Diagnostic
	// Registries can be discovered both from their defining package's scope
	// and from Register call receivers in other packages; both routes feed
	// ensureReg, so load order does not matter.
	for _, name := range p.Pkg.Scope().Names() {
		if v, ok := p.Pkg.Scope().Lookup(name).(*types.Var); ok {
			a.ensureReg(v)
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if d := a.checkRegisterCall(p, call); d != nil {
				diags = append(diags, *d)
			}
			return true
		})
	}
	return diags
}

// registryVar resolves an expression to a registry variable, or nil.
func (a *FactoryReg) registryVar(p *Package, e ast.Expr) *types.Var {
	var obj types.Object
	switch x := e.(type) {
	case *ast.Ident:
		obj = p.Info.Uses[x]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[x.Sel]
	}
	v, ok := obj.(*types.Var)
	if !ok || a.ensureReg(v) == nil {
		return nil
	}
	return v
}

// ensureReg records (once) a package-level variable of type
// *factory.Registry[C] and extracts the component interface from C's result.
func (a *FactoryReg) ensureReg(v *types.Var) *regInfo {
	if v.Pkg() == nil {
		return nil
	}
	key := v.Pkg().Path() + "." + v.Name()
	if r, ok := a.regs[key]; ok {
		return r
	}
	ptr, ok := v.Type().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != a.FactoryPath || named.Obj().Name() != "Registry" ||
		named.TypeArgs().Len() != 1 {
		return nil
	}
	r := &regInfo{
		name:       v.Pkg().Path() + "." + v.Name(),
		registered: map[string]bool{},
		names:      map[string][]token.Position{},
	}
	if sig, ok := named.TypeArgs().At(0).Underlying().(*types.Signature); ok && sig.Results().Len() > 0 {
		res := sig.Results().At(sig.Results().Len() - 1).Type()
		if resNamed, ok := res.(*types.Named); ok && resNamed.Obj().Pkg() != nil {
			if _, isIface := resNamed.Underlying().(*types.Interface); isIface {
				r.ifacePkg = resNamed.Obj().Pkg().Path()
				r.ifaceName = resNamed.Obj().Name()
			}
		}
	}
	a.regs[key] = r
	return r
}

// checkRegisterCall processes one potential Registry.Register call: records
// the registration and returns a diagnostic for convention violations
// (registration outside init, non-literal name).
func (a *FactoryReg) checkRegisterCall(p *Package, call *ast.CallExpr) *Diagnostic {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Register" || len(call.Args) != 2 {
		return nil
	}
	v := a.registryVar(p, sel.X)
	if v == nil {
		return nil
	}
	r := a.regs[v.Pkg().Path()+"."+v.Name()]
	pos := p.Position(call.Pos())

	if !inInitFunc(p, call) {
		return &Diagnostic{
			Rule: RuleFactoryReg, Pos: pos,
			Message: fmt.Sprintf(
				"%s.Register must be called from an init() so the model is available as soon as its file links in",
				v.Name()),
		}
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return &Diagnostic{
			Rule: RuleFactoryReg, Pos: pos,
			Message: fmt.Sprintf(
				"registration name passed to %s.Register must be a string literal so name collisions are checkable at lint time",
				v.Name()),
		}
	}
	name := lit.Value[1 : len(lit.Value)-1]
	r.names[name] = append(r.names[name], p.Position(lit.Pos()))

	concrete, resolved := a.ctorTypes(p, call.Args[1], map[*ast.FuncDecl]bool{})
	if !resolved {
		r.incomplete = true
	}
	for _, c := range concrete {
		r.registered[c] = true
	}
	return nil
}

// inInitFunc reports whether the node sits inside a top-level func init().
func inInitFunc(p *Package, n ast.Node) bool {
	for anc := p.Parent(n); anc != nil; anc = p.Parent(anc) {
		if fd, ok := anc.(*ast.FuncDecl); ok {
			return fd.Recv == nil && fd.Name.Name == "init"
		}
	}
	return false
}

// ctorTypes resolves the concrete component types a constructor expression
// can return: function literals and same-package functions are followed
// through their return statements (constructor-call results recurse one
// definition at a time). ok is false when any path cannot be resolved.
func (a *FactoryReg) ctorTypes(p *Package, e ast.Expr, visited map[*ast.FuncDecl]bool) ([]string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return a.scanReturns(p, x.Body, visited)
	case *ast.Ident, *ast.SelectorExpr:
		fd := p.funcDecl(x.(ast.Expr))
		if fd == nil || fd.Body == nil || visited[fd] {
			return nil, false
		}
		visited[fd] = true
		return a.scanReturns(p, fd.Body, visited)
	}
	return nil, false
}

// funcDecl finds the declaration of a function referenced by e within the
// same package, or nil.
func (p *Package) funcDecl(e ast.Expr) *ast.FuncDecl {
	var obj types.Object
	switch x := e.(type) {
	case *ast.Ident:
		obj = p.Info.Uses[x]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[x.Sel]
	}
	if obj == nil {
		return nil
	}
	return p.funcDeclOf(obj)
}

// scanReturns collects the concrete types of every return expression in a
// constructor body.
func (a *FactoryReg) scanReturns(p *Package, body *ast.BlockStmt, visited map[*ast.FuncDecl]bool) ([]string, bool) {
	var out []string
	ok := true
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // different function
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || len(ret.Results) == 0 {
			return true
		}
		expr := ast.Unparen(ret.Results[0])
		if isNilIdent(expr) {
			return true
		}
		t := p.TypeOf(expr)
		if t == nil {
			ok = false
			return true
		}
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, isNamed := t.(*types.Named)
		if isNamed && named.Obj().Pkg() != nil {
			if _, isIface := named.Underlying().(*types.Interface); !isIface {
				out = append(out, named.Obj().Pkg().Path()+"."+named.Obj().Name())
				return true
			}
		}
		// Interface-typed return: follow a direct constructor call.
		if call, isCall := expr.(*ast.CallExpr); isCall {
			sub, subOK := a.ctorTypes(p, call.Fun, visited)
			out = append(out, sub...)
			ok = ok && subOK
			return true
		}
		ok = false
		return true
	})
	return out, ok
}

// Finish implements Finisher: duplicate registration names and unregistered
// implementations, resolved across every checked package.
func (a *FactoryReg) Finish() []Diagnostic {
	var diags []Diagnostic
	regKeys := make([]string, 0, len(a.regs))
	for k := range a.regs {
		regKeys = append(regKeys, k)
	}
	sort.Strings(regKeys)

	for _, k := range regKeys {
		r := a.regs[k]
		names := make([]string, 0, len(r.names))
		for n := range r.names {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			sites := r.names[n]
			if len(sites) < 2 {
				continue
			}
			sort.Slice(sites, func(i, j int) bool {
				if sites[i].Filename != sites[j].Filename {
					return sites[i].Filename < sites[j].Filename
				}
				return sites[i].Line < sites[j].Line
			})
			for _, pos := range sites[1:] {
				diags = append(diags, Diagnostic{
					Rule: RuleFactoryReg, Pos: pos,
					Message: fmt.Sprintf(
						"duplicate registration name %q in %s (first registered at %s:%d)",
						n, r.name, sites[0].Filename, sites[0].Line),
				})
			}
		}
	}

	for _, p := range a.pkgs {
		for _, k := range regKeys {
			r := a.regs[k]
			if r.incomplete || r.ifaceName == "" || len(r.names) == 0 {
				continue
			}
			iface := lookupInterface(p.Pkg, r.ifacePkg, r.ifaceName)
			if iface == nil || iface.NumMethods() == 0 {
				continue
			}
			scope := p.Pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				t := tn.Type()
				if _, isIface := t.Underlying().(*types.Interface); isIface {
					continue
				}
				if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
					continue
				}
				qual := p.Pkg.Path() + "." + tn.Name()
				if r.registered[qual] {
					continue
				}
				diags = append(diags, Diagnostic{
					Rule: RuleFactoryReg, Pos: p.Position(tn.Pos()),
					Message: fmt.Sprintf(
						"%s implements %s.%s but is not registered with %s — it can never be selected from a config",
						tn.Name(), path.Base(r.ifacePkg), r.ifaceName, r.name),
				})
			}
		}
	}
	return diags
}

// lookupInterface finds the named interface within the package's own scope
// or its transitive imports — the same type-checking universe as the
// package's types, so types.Implements is exact.
func lookupInterface(pkg *types.Package, path, name string) *types.Interface {
	target := findImport(pkg, path, map[*types.Package]bool{})
	if target == nil {
		return nil
	}
	tn, ok := target.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

func findImport(pkg *types.Package, path string, seen map[*types.Package]bool) *types.Package {
	if pkg.Path() == path {
		return pkg
	}
	if seen[pkg] {
		return nil
	}
	seen[pkg] = true
	for _, imp := range pkg.Imports() {
		if found := findImport(imp, path, seen); found != nil {
			return found
		}
	}
	return nil
}
