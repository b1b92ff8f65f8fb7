package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ShardSafety extends the determinism rule's import-level concurrency
// confinement to the access level, and checks the ownership discipline of
// cross-shard components.
//
// Part one: any reference to an object from sync or sync/atomic — a type, a
// function, or a (possibly promoted) method — inside a sim-core file outside
// the sanctioned-synchronizer allow list is flagged. The determinism rule
// already rejects the imports; this catches uses that need no import line,
// such as Lock/Unlock promoted through a struct embedded from another
// package.
//
// Part two: a struct with a *sim.RemotePort field is a shard-spanning
// component. Its fields partition by goroutine: whatever its inbox methods
// (ReceiveRemote, ProcessEvent) write is destination-shard state, and no
// other method may touch it — or call the destination-bound ComponentBase
// accessors Sim, Panicf, Assert — except after the method has established
// that the remote port is nil (the component is local, so there is only one
// shard). Exactly one shape establishes that, the one Channel.Inject uses: a
// top-level statement of the method body that hands the remote case to the
// seam and returns.
//
//	if c.remote != nil { c.injectRemote(f); return } // source side: inbox seam
//	... writes to c.pending, calls c.Sim() ...       // remote == nil here
//
// The test is syntactic on purpose. Any other arrangement — the access
// inside `if c.remote == nil { ... }`, the early return nested in a loop —
// is flagged; write the early return.
type ShardSafety struct {
	// SimCore holds the import-path prefixes the rule applies to.
	SimCore []string
	// ConcurrencyAllow holds file-path suffixes exempt from the sync-access
	// check (the sanctioned synchronizer files).
	ConcurrencyAllow []string
	// SimPackage is the import path of the package defining RemotePort.
	SimPackage string
	// InboxMethods are the method names that run on the destination shard's
	// goroutine; the fields they write are destination-owned.
	InboxMethods map[string]bool
	// ExemptMethods additionally never race: checkpoint codecs and the
	// message-table collector run while the engine is quiesced.
	ExemptMethods map[string]bool
}

// NewShardSafety returns the analyzer with the repo's default scope.
func NewShardSafety() *ShardSafety {
	return &ShardSafety{
		SimCore:          DefaultSimCorePackages,
		ConcurrencyAllow: DefaultConcurrencyAllow,
		SimPackage:       "supersim/internal/sim",
		InboxMethods:     map[string]bool{"ReceiveRemote": true, "ProcessEvent": true},
		ExemptMethods: map[string]bool{
			"ReceiveRemote": true, "ProcessEvent": true,
			"State": true, "Collect": true,
		},
	}
}

// Name implements Analyzer.
func (*ShardSafety) Name() string { return RuleShardSafety }

func (a *ShardSafety) inScope(path string) bool {
	for _, pre := range a.SimCore {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

func (a *ShardSafety) concurrencyAllowed(file string) bool {
	for _, suf := range a.ConcurrencyAllow {
		if strings.HasSuffix(file, suf) {
			return true
		}
	}
	return false
}

// Check implements Analyzer.
func (a *ShardSafety) Check(p *Package) []Diagnostic {
	if !a.inScope(p.ImportPath) {
		return nil
	}
	diags := a.checkSyncAccess(p)
	diags = append(diags, a.checkRemoteOwnership(p)...)
	return diags
}

// checkSyncAccess flags every reference to a sync / sync/atomic object in
// non-allowed sim-core files.
func (a *ShardSafety) checkSyncAccess(p *Package) []Diagnostic {
	var diags []Diagnostic
	seen := map[token.Pos]bool{}
	for id, obj := range p.Info.Uses {
		if obj == nil || obj.Pkg() == nil {
			continue
		}
		path := obj.Pkg().Path()
		if path != "sync" && path != "sync/atomic" {
			continue
		}
		if seen[id.Pos()] {
			continue
		}
		seen[id.Pos()] = true
		pos := p.Position(id.Pos())
		if a.concurrencyAllowed(pos.Filename) {
			continue
		}
		diags = append(diags, Diagnostic{
			Rule: RuleShardSafety, Pos: pos,
			Message: fmt.Sprintf(
				"use of %s.%s in sim-core package %s — shared-memory synchronization belongs in the conservative engine (internal/sim/parallel.go)",
				path, obj.Name(), p.ImportPath),
		})
	}
	return diags
}

// remoteStruct is one shard-spanning component type of the package.
type remoteStruct struct {
	named *types.Named
	// remoteFields are the *sim.RemotePort fields, by object.
	remoteFields map[*types.Var]bool
	// destOwned are the fields written by the inbox methods.
	destOwned map[*types.Var]bool
}

// checkRemoteOwnership enforces the destination-shard ownership discipline
// on structs holding a *sim.RemotePort.
func (a *ShardSafety) checkRemoteOwnership(p *Package) []Diagnostic {
	structs := a.remoteStructs(p)
	if len(structs) == 0 {
		return nil
	}

	// Pass one: collect destination-owned fields from the inbox methods.
	methods := map[*remoteStruct][]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) != 1 {
				continue
			}
			rs := structs[namedStruct(p.TypeOf(fd.Recv.List[0].Type))]
			if rs == nil {
				continue
			}
			methods[rs] = append(methods[rs], fd)
			if a.InboxMethods[fd.Name.Name] {
				collectFieldWrites(p, fd.Body, rs.named, rs.destOwned)
			}
		}
	}

	var diags []Diagnostic
	for rs, fds := range methods {
		if len(rs.destOwned) == 0 {
			continue
		}
		for _, fd := range fds {
			if a.ExemptMethods[fd.Name.Name] || a.InboxMethods[fd.Name.Name] {
				continue
			}
			diags = append(diags, a.checkMethod(p, rs, fd)...)
		}
	}
	return diags
}

// remoteStructs indexes the package's struct types holding a
// *sim.RemotePort field.
func (a *ShardSafety) remoteStructs(p *Package) map[*types.Named]*remoteStruct {
	out := map[*types.Named]*remoteStruct{}
	for _, name := range p.Pkg.Scope().Names() {
		tn, ok := p.Pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var remotes map[*types.Var]bool
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if a.isRemotePort(fld.Type()) {
				if remotes == nil {
					remotes = map[*types.Var]bool{}
				}
				remotes[fld] = true
			}
		}
		if remotes != nil {
			out[named] = &remoteStruct{
				named: named, remoteFields: remotes, destOwned: map[*types.Var]bool{},
			}
		}
	}
	return out
}

// isRemotePort reports whether t is *sim.RemotePort.
func (a *ShardSafety) isRemotePort(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "RemotePort" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == a.SimPackage
}

// collectFieldWrites records the receiver fields a body assigns.
func collectFieldWrites(p *Package, body *ast.BlockStmt, subj *types.Named, out map[*types.Var]bool) {
	mark := func(e ast.Expr) {
		v := receiverFieldOf(p, e, subj)
		if v != nil {
			out[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				mark(l)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		}
		return true
	})
}

// receiverFieldOf resolves an lvalue expression to the subject-struct field
// it writes, looking through index and slice expressions (c.pending[i] = v
// and c.pending = c.pending[:0] both write the pending field).
func receiverFieldOf(p *Package, e ast.Expr, subj *types.Named) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			s := p.Info.Selections[x]
			if s == nil || s.Kind() != types.FieldVal {
				return nil
			}
			v, ok := s.Obj().(*types.Var)
			if !ok {
				return nil
			}
			if namedStruct(s.Recv()) != subj {
				return nil
			}
			return v
		default:
			return nil
		}
	}
}

// destBoundAccessors are the ComponentBase methods bound to the adopting
// (destination) shard: Sim returns the destination simulator, and Panicf /
// Assert read its clock.
var destBoundAccessors = map[string]bool{"Sim": true, "Panicf": true, "Assert": true}

// localFrom returns the position after which a method body runs with the
// remote port known nil: the end of its first top-level
// `if recv.<remote> != nil { ...; return }` statement, or NoPos without one.
func localFrom(p *Package, rs *remoteStruct, body *ast.BlockStmt) token.Pos {
	for _, st := range body.List {
		ifs, ok := st.(*ast.IfStmt)
		if !ok || ifs.Init != nil || ifs.Else != nil || len(ifs.Body.List) == 0 {
			continue
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.NEQ || !isNilIdent(cond.Y) {
			continue
		}
		v := receiverFieldOf(p, cond.X, rs.named)
		if v == nil || !rs.remoteFields[v] {
			continue
		}
		if _, returns := ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt); returns {
			return ifs.End()
		}
	}
	return token.NoPos
}

// checkMethod flags destination-owned accesses in one source-side method
// unless they follow the method's remote-port early return.
func (a *ShardSafety) checkMethod(p *Package, rs *remoteStruct, fd *ast.FuncDecl) []Diagnostic {
	recvName := ""
	if names := fd.Recv.List[0].Names; len(names) == 1 {
		recvName = names[0].Name
	}
	if recvName == "" || recvName == "_" {
		return nil
	}
	var remoteKeys []string
	for v := range rs.remoteFields {
		remoteKeys = append(remoteKeys, recvName+"."+v.Name())
	}
	local := localFrom(p, rs, fd.Body)
	localProven := func(n ast.Node) bool { return local.IsValid() && n.Pos() >= local }

	var diags []Diagnostic
	flagWrite := func(e ast.Expr, at ast.Node) {
		v := receiverFieldOf(p, e, rs.named)
		if v == nil || !rs.destOwned[v] || localProven(at) {
			return
		}
		diags = append(diags, Diagnostic{
			Rule: RuleShardSafety, Pos: p.Position(at.Pos()),
			Message: fmt.Sprintf(
				"write to %s.%s outside the inbox methods — the field is destination-shard state (written by %s); post through the RemotePort seam, or return early with `if %s != nil { ...; return }` first",
				rs.named.Obj().Name(), v.Name(), inboxNames(a.InboxMethods), strings.Join(remoteKeys, " / ")),
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				flagWrite(l, x)
			}
		case *ast.IncDecStmt:
			flagWrite(x.X, x)
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || !destBoundAccessors[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != recvName {
				return true
			}
			s := p.Info.Selections[sel]
			if s == nil || s.Kind() != types.MethodVal {
				return true
			}
			if fn, ok := s.Obj().(*types.Func); !ok || fn.Pkg() == nil || fn.Pkg().Path() != a.SimPackage {
				return true
			}
			if localProven(x) {
				return true
			}
			diags = append(diags, Diagnostic{
				Rule: RuleShardSafety, Pos: p.Position(x.Pos()),
				Message: fmt.Sprintf(
					"%s.%s() on a shard-spanning component outside the inbox methods — it is bound to the destination shard; use the RemotePort (SrcNow/Send), or return early with `if %s != nil { ...; return }` first",
					recvName, sel.Sel.Name, strings.Join(remoteKeys, " / ")),
			})
		}
		return true
	})
	return diags
}

// inboxNames renders the inbox-method set for messages, sorted.
func inboxNames(m map[string]bool) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}
