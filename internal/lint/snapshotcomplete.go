package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SnapshotComplete audits the checkpoint codecs against the structs they
// serialize. Since the codec is bidirectional — a type's State method is both
// its encoder and its decoder — "encoded but not restored", "restored but
// not encoded" and "different order" cannot be written down, and one check
// remains: a type that has a method taking a *snapshot.Codec must mention
// every mutable field in it, or mark the field //sslint:nosnapshot.
//
//   - "Mentioned" is a selector or composite-literal key anywhere in the
//     type's codec methods, in the codec-carrying functions they call, or in
//     the type's own methods they delegate to (Telemetry.State -> seal,
//     Registry.State -> register), transitively within the package. A field
//     touched only on load (a reset cache) counts: it is accounted for.
//   - "Mutable" means some method of the package outside the codec functions
//     writes the field (assignment, inc/dec, address-taken). Fields only ever
//     set by constructors (plain functions) are configuration and exempt.
//   - //sslint:nosnapshot exempts genuinely ephemeral fields explicitly; one
//     on a field the codec does mention is stale and reported, and one that
//     covers no audited field is reported by the directive checker.
type SnapshotComplete struct {
	// SnapshotPackage is the import path of the codec package.
	SnapshotPackage string
}

// NewSnapshotComplete returns the analyzer bound to the repo's snapshot
// package.
func NewSnapshotComplete() *SnapshotComplete {
	return &SnapshotComplete{SnapshotPackage: "supersim/internal/snapshot"}
}

// Name implements Analyzer.
func (*SnapshotComplete) Name() string { return RuleSnapshotComplete }

// Check implements Analyzer.
func (a *SnapshotComplete) Check(p *Package) []Diagnostic {
	// Codec functions: everything that takes a *snapshot.Codec. Methods among
	// them make their receiver type a subject of the audit.
	codecFDs := map[*ast.FuncDecl]bool{}
	roots := map[*types.Named][]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !a.takesCodec(p, fd) {
				continue
			}
			codecFDs[fd] = true
			if subj := receiverOf(p, fd); subj != nil {
				roots[subj] = append(roots[subj], fd)
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}
	subjects := make([]*types.Named, 0, len(roots))
	for subj := range roots {
		subjects = append(subjects, subj)
	}
	sort.Slice(subjects, func(i, j int) bool {
		return subjects[i].Obj().Name() < subjects[j].Obj().Name()
	})
	mutable := a.mutableFields(p, codecFDs)

	var diags []Diagnostic
	for _, subj := range subjects {
		mentioned := a.mentions(p, subj, roots[subj], codecFDs)
		st := subj.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if fld.Anonymous() {
				continue // embedded types are audited via their own codec methods
			}
			fpos := p.Position(fld.Pos())
			dir := p.directives.nosnapshotFor(fpos)
			switch {
			case mentioned[fld] && dir != nil:
				diags = append(diags, Diagnostic{
					Rule: RuleSnapshotComplete, Pos: dir.pos,
					Message: fmt.Sprintf(
						"field %s.%s is marked //sslint:nosnapshot but the codec serializes it — remove the directive",
						subj.Obj().Name(), fld.Name()),
				})
			case !mentioned[fld] && dir == nil && mutable[fld]:
				diags = append(diags, Diagnostic{
					Rule: RuleSnapshotComplete, Pos: fpos,
					Message: fmt.Sprintf(
						"field %s.%s is mutated by methods of this package but never serialized — add it to %s's State method or mark it //sslint:nosnapshot with a justification",
						subj.Obj().Name(), fld.Name(), subj.Obj().Name()),
				})
			}
		}
	}
	return diags
}

// takesCodec reports whether fd has a *snapshot.Codec parameter.
func (a *SnapshotComplete) takesCodec(p *Package, fd *ast.FuncDecl) bool {
	for _, fld := range fd.Type.Params.List {
		ptr, ok := p.TypeOf(fld.Type).(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if ok && named.Obj().Name() == "Codec" && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == a.SnapshotPackage {
			return true
		}
	}
	return false
}

// namedStruct unwraps a pointer and reports the named struct type, if any.
func namedStruct(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// mentions returns the subject's fields referenced from its codec methods:
// in their bodies and, transitively, in the bodies of the package functions
// they call that either carry the codec or are methods of the subject.
func (a *SnapshotComplete) mentions(p *Package, subj *types.Named, roots []*ast.FuncDecl, codecFDs map[*ast.FuncDecl]bool) map[*types.Var]bool {
	fields := map[*types.Var]bool{}
	st := subj.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}
	out := map[*types.Var]bool{}
	visited := map[*ast.FuncDecl]bool{}
	work := append([]*ast.FuncDecl(nil), roots...)
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		if visited[fd] {
			continue
		}
		visited[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if v := fieldOf(p, x); fields[v] {
					out[v] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					if v, ok := p.Info.Uses[id].(*types.Var); ok && fields[v] {
						out[v] = true
					}
				}
			case *ast.CallExpr:
				if callee := calleeDecl(p, x); callee != nil && (codecFDs[callee] || receiverOf(p, callee) == subj) {
					work = append(work, callee)
				}
			}
			return true
		})
	}
	return out
}

// calleeDecl resolves a call to the function or method it names, if that is
// declared in this package.
func calleeDecl(p *Package, call *ast.CallExpr) *ast.FuncDecl {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	return p.funcDeclOf(p.Info.Uses[id])
}

// receiverOf returns the named struct fd is a method of, or nil.
func receiverOf(p *Package, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return nil
	}
	return namedStruct(p.TypeOf(fd.Recv.List[0].Type))
}

// fieldOf returns the struct field a selector expression denotes, or nil.
func fieldOf(p *Package, sel *ast.SelectorExpr) *types.Var {
	if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		v, _ := s.Obj().(*types.Var)
		return v
	}
	return nil
}

// mutableFields computes the fields written by any method in the package
// outside the codec bodies: assignments, inc/dec, and address-taking all
// count. Fields written only by plain functions (constructors) stay
// immutable.
func (a *SnapshotComplete) mutableFields(p *Package, codecFDs map[*ast.FuncDecl]bool) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	markFields := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if v := fieldOf(p, sel); v != nil {
					out[v] = true
				}
			}
			return true
		})
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || codecFDs[fd] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, l := range x.Lhs {
						markFields(l)
					}
				case *ast.IncDecStmt:
					markFields(x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						markFields(x.X)
					}
				}
				return true
			})
		}
	}
	return out
}
