package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes per-function summaries: the concurrency- and
// allocation-relevant behavior of one function body, extracted once at
// module-build time and shared by every module analyzer. The summary
// walk is path-insensitive but order-aware: statements are visited in
// source order with a held-lock set that branches copy, so the common
// "Lock; if bail { Unlock; return }; work; Unlock" idiom attributes
// `work` to the held region without flow analysis.

// LockSite is one mutex acquisition. Key identifies the mutex by
// declaration, not by expression: "pkgpath.Type.field" for a struct
// field, "pkgpath.var.field" / "pkgpath.var" for a package variable,
// and "pkgpath.func.name" for a function-local mutex.
type LockSite struct {
	// Key is the mutex's stable identity.
	Key string
	// Pos is the acquisition site.
	Pos token.Pos
	// Read marks RLock acquisitions.
	Read bool
}

// LockEdge is an intra-function acquisition ordering: To was acquired
// while From was held.
type LockEdge struct {
	// From is the lock already held.
	From LockSite
	// To is the lock acquired under it.
	To LockSite
}

// SendSite is one channel send statement or select send case.
type SendSite struct {
	// Pos is the send.
	Pos token.Pos
	// Chan renders the channel expression.
	Chan string
	// Escaped marks sends inside a select with a default clause or a
	// ctx.Done-style receive case — the sanctioned non-blocking forms.
	Escaped bool
	// Local marks sends on channels made in this same function, whose
	// consumers the function controls.
	Local bool
	// Held snapshots the locks held at the send.
	Held []LockSite
}

// CallSite is one statically resolved call.
type CallSite struct {
	// Call is the call expression.
	Call *ast.CallExpr
	// Callee is the resolved target, nil for dynamic calls (function
	// values, interface methods the checker cannot pin).
	Callee *types.Func
	// Held snapshots the locks held at the call.
	Held []LockSite
	// InLoop marks calls lexically inside a for/range loop.
	InLoop bool
}

// SpawnSite is one go statement.
type SpawnSite struct {
	// Go is the statement.
	Go *ast.GoStmt
	// Callee is the spawned named function, if statically resolved.
	Callee *types.Func
	// Lit is the spawned function literal, if any.
	Lit *ast.FuncLit
	// Held snapshots the locks held at the spawn.
	Held []LockSite
}

// AllocSite is one heap-allocating construct.
type AllocSite struct {
	// Pos is the allocation.
	Pos token.Pos
	// Kind describes it: "make", "new", "append growth", "map insert",
	// "pointer literal", or "closure".
	Kind string
	// InLoop marks allocations lexically inside a for/range loop.
	InLoop bool
}

// Summary is the interprocedural digest of one function body: which
// locks it takes and in what order, what it sends, calls, spawns and
// allocates, and whether it can loop forever.
type Summary struct {
	// Fn is the summarized function; nil for function literals.
	Fn *types.Func
	// Decl is the declaration; nil for function literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declarations.
	Lit *ast.FuncLit
	// Pkg owns the body.
	Pkg *Package

	// Acquires lists every mutex acquisition in source order.
	Acquires []LockSite
	// Edges lists intra-function lock-order edges.
	Edges []LockEdge
	// Sends lists every channel send.
	Sends []SendSite
	// Calls lists statically resolved call sites (plus dynamic calls
	// with a nil callee, kept for hot-path propagation).
	Calls []CallSite
	// Spawns lists go statements.
	Spawns []SpawnSite
	// Allocs lists heap-allocating constructs.
	Allocs []AllocSite
	// LoopsForever reports a for-loop with no condition, range clause,
	// or reachable exit (return/break/goto/panic/os.Exit) — once
	// entered the function never returns.
	LoopsForever bool
	// ForeverLoop locates the offending loop when LoopsForever.
	ForeverLoop token.Pos
	// Lits are the function literals declared in this body, in source
	// order (their own summaries live in the module's literal table).
	Lits []*ast.FuncLit
	// LitBinds maps local objects assigned a function literal in this
	// body ("f := func(){…}") to that literal.
	LitBinds map[types.Object]*ast.FuncLit
}

// Name renders the summarized function for diagnostics.
func (s *Summary) Name() string {
	if s.Fn != nil {
		return s.Fn.FullName()
	}
	return "func literal"
}

// summarize walks one body and records its summary; lits found along
// the way are summarized recursively into m.lits.
func (m *Module) summarize(pkg *Package, fn *types.Func, decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) *Summary {
	sum := &Summary{Fn: fn, Decl: decl, Lit: lit, Pkg: pkg, LitBinds: map[types.Object]*ast.FuncLit{}}
	w := &bodyWalker{m: m, pkg: pkg, sum: sum, prealloc: map[string]bool{}, localChans: map[string]bool{}}
	w.stmt(body)
	return sum
}

// bodyWalker tracks the held-lock set and loop depth while visiting
// one function body in source order.
type bodyWalker struct {
	m          *Module
	pkg        *Package
	sum        *Summary
	held       []LockSite
	loopDepth  int
	prealloc   map[string]bool // exprs assigned make-with-capacity
	localChans map[string]bool // exprs assigned make(chan …)
	loopLabels map[*ast.ForStmt]string
}

func (w *bodyWalker) heldCopy() []LockSite {
	if len(w.held) == 0 {
		return nil
	}
	return append([]LockSite{}, w.held...)
}

// branch walks a nested block with a copy of the held set, so an
// Unlock inside one arm does not end the region for the code after it.
func (w *bodyWalker) branch(s ast.Stmt) {
	if s == nil {
		return
	}
	saved := w.held
	w.held = w.heldCopy()
	w.stmt(s)
	w.held = saved
}

func (w *bodyWalker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, s := range st.List {
			w.stmt(s)
		}
	case *ast.ExprStmt:
		w.expr(st.X)
	case *ast.AssignStmt:
		w.assign(st)
	case *ast.IncDecStmt:
		if ix, ok := st.X.(*ast.IndexExpr); ok && w.isMap(ix.X) && !w.prealloc[types.ExprString(ix.X)] {
			w.alloc(st.Pos(), "map insert")
		}
		w.expr(st.X)
	case *ast.SendStmt:
		w.send(st.Chan, st.Pos(), false)
		w.expr(st.Value)
	case *ast.GoStmt:
		w.spawn(st)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to function end (no
		// pop); other deferred calls run outside the tracked region.
		if w.lockMethod(st.Call) == "" {
			w.callSite(st.Call, nil)
			for _, a := range st.Call.Args {
				w.expr(a)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.expr(r)
		}
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.expr(st.Cond)
		w.branch(st.Body)
		w.branch(st.Else)
	case *ast.ForStmt:
		w.stmt(st.Init)
		if st.Cond != nil {
			w.expr(st.Cond)
		}
		w.forever(st)
		w.loopDepth++
		w.branch(st.Body)
		w.stmt(st.Post)
		w.loopDepth--
	case *ast.RangeStmt:
		w.expr(st.X)
		w.loopDepth++
		w.branch(st.Body)
		w.loopDepth--
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		if st.Tag != nil {
			w.expr(st.Tag)
		}
		for _, c := range st.Body.List {
			w.branch(c)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		for _, c := range st.Body.List {
			w.branch(c)
		}
	case *ast.CaseClause:
		for _, e := range st.List {
			w.expr(e)
		}
		for _, s := range st.Body {
			w.stmt(s)
		}
	case *ast.SelectStmt:
		w.selectStmt(st)
	case *ast.CommClause:
		// Reached only via selectStmt, which handles the comm itself.
		for _, s := range st.Body {
			w.stmt(s)
		}
	case *ast.LabeledStmt:
		if f, ok := st.Stmt.(*ast.ForStmt); ok {
			if w.loopLabels == nil {
				w.loopLabels = map[*ast.ForStmt]string{}
			}
			w.loopLabels[f] = st.Label.Name
		}
		w.stmt(st.Stmt)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	}
}

// selectStmt classifies its send cases: a default clause or a
// ctx.Done-style receive case makes the sends non-blocking escapes.
func (w *bodyWalker) selectStmt(st *ast.SelectStmt) {
	escaped := false
	for _, c := range st.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil { // default:
			escaped = true
			continue
		}
		if isDoneRecv(cc.Comm) {
			escaped = true
		}
	}
	for _, c := range st.Body.List {
		cc := c.(*ast.CommClause)
		if send, ok := cc.Comm.(*ast.SendStmt); ok {
			w.send(send.Chan, send.Pos(), escaped)
			w.expr(send.Value)
		}
		for _, s := range cc.Body {
			w.branch(s)
		}
	}
}

// isDoneRecv matches "case <-ctx.Done():" and "case <-x:" receives
// from a method called Done — the cancellation idioms.
func isDoneRecv(comm ast.Stmt) bool {
	var x ast.Expr
	switch c := comm.(type) {
	case *ast.ExprStmt:
		x = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			x = c.Rhs[0]
		}
	}
	u, ok := x.(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return false
	}
	call, ok := u.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done"
}

func (w *bodyWalker) assign(st *ast.AssignStmt) {
	for i, rhs := range st.Rhs {
		var lhs ast.Expr
		if len(st.Lhs) == len(st.Rhs) {
			lhs = st.Lhs[i]
		}
		if lhs != nil {
			w.trackMake(lhs, rhs)
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(call.Fun, "append") && len(call.Args) > 0 {
				dst := types.ExprString(lhs)
				if types.ExprString(call.Args[0]) == dst && !w.prealloc[dst] {
					w.alloc(st.Pos(), "append growth")
				}
				for _, a := range call.Args[1:] {
					w.expr(a)
				}
				continue
			}
			if lit, ok := rhs.(*ast.FuncLit); ok {
				if id, ok := lhs.(*ast.Ident); ok && w.pkg.Info != nil {
					if obj := w.pkg.Info.Defs[id]; obj != nil {
						w.sum.LitBinds[obj] = lit
					} else if obj := w.pkg.Info.Uses[id]; obj != nil {
						w.sum.LitBinds[obj] = lit
					}
				}
			}
		}
		w.expr(rhs)
	}
	for _, lhs := range st.Lhs {
		if ix, ok := lhs.(*ast.IndexExpr); ok && w.isMap(ix.X) && !w.prealloc[types.ExprString(ix.X)] {
			w.alloc(lhs.Pos(), "map insert")
		}
	}
}

// trackMake records preallocated slices/maps ("x := make(T, n, cap)",
// "m := make(map, hint)") and locally created channels. A composite
// literal tracks its fields, so "part := state{order: make(…, 0, n)}"
// marks part.order preallocated.
func (w *bodyWalker) trackMake(lhs, rhs ast.Expr) {
	if cl, ok := rhs.(*ast.CompositeLit); ok {
		base := types.ExprString(lhs)
		for _, el := range cl.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			w.trackMakeKey(base+"."+key.Name, kv.Value)
		}
		return
	}
	w.trackMakeKey(types.ExprString(lhs), rhs)
}

func (w *bodyWalker) trackMakeKey(key string, rhs ast.Expr) {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || !isBuiltin(call.Fun, "make") || len(call.Args) == 0 {
		return
	}
	t := w.typeOf(call.Args[0])
	switch t.(type) {
	case *types.Chan:
		w.localChans[key] = true
	case *types.Map:
		if len(call.Args) >= 2 {
			w.prealloc[key] = true
		}
	default:
		if len(call.Args) >= 3 {
			w.prealloc[key] = true
		}
	}
}

func (w *bodyWalker) typeOf(e ast.Expr) types.Type {
	if w.pkg.Info == nil {
		return nil
	}
	if tv, ok := w.pkg.Info.Types[e]; ok {
		if tv.IsType() {
			return tv.Type
		}
		return tv.Type
	}
	return w.pkg.Info.TypeOf(e)
}

func (w *bodyWalker) isMap(e ast.Expr) bool {
	t := w.typeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func (w *bodyWalker) send(ch ast.Expr, pos token.Pos, escaped bool) {
	w.sum.Sends = append(w.sum.Sends, SendSite{
		Pos:     pos,
		Chan:    types.ExprString(ch),
		Escaped: escaped,
		Local:   w.localChans[types.ExprString(ch)],
		Held:    w.heldCopy(),
	})
	w.expr(ch)
}

func (w *bodyWalker) spawn(st *ast.GoStmt) {
	sp := SpawnSite{Go: st, Held: w.heldCopy()}
	switch fun := ast.Unparen(st.Call.Fun).(type) {
	case *ast.FuncLit:
		sp.Lit = fun
		w.litAt(fun)
	default:
		sp.Callee = w.calleeOf(st.Call)
	}
	w.sum.Spawns = append(w.sum.Spawns, sp)
	for _, a := range st.Call.Args {
		w.expr(a)
	}
}

func (w *bodyWalker) alloc(pos token.Pos, kind string) {
	w.sum.Allocs = append(w.sum.Allocs, AllocSite{Pos: pos, Kind: kind, InLoop: w.loopDepth > 0})
}

// litAt summarizes a nested function literal with a fresh walker and
// records it on the enclosing summary.
func (w *bodyWalker) litAt(lit *ast.FuncLit) {
	w.sum.Lits = append(w.sum.Lits, lit)
	if _, ok := w.m.lits[lit]; ok {
		return
	}
	sub := w.m.summarize(w.pkg, nil, nil, lit, lit.Body)
	w.m.lits[lit] = sub
}

func (w *bodyWalker) expr(e ast.Expr) {
	switch x := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(x)
	case *ast.FuncLit:
		w.alloc(x.Pos(), "closure")
		w.litAt(x)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				w.alloc(x.Pos(), "pointer literal")
			}
		}
		w.expr(x.X)
	case *ast.BinaryExpr:
		w.expr(x.X)
		w.expr(x.Y)
	case *ast.ParenExpr:
		w.expr(x.X)
	case *ast.SelectorExpr:
		w.expr(x.X)
	case *ast.IndexExpr:
		w.expr(x.X)
		w.expr(x.Index)
	case *ast.SliceExpr:
		w.expr(x.X)
	case *ast.StarExpr:
		w.expr(x.X)
	case *ast.TypeAssertExpr:
		w.expr(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(x.Value)
	}
}

// call handles mutex operations, allocation builtins, and ordinary
// call sites.
func (w *bodyWalker) call(call *ast.CallExpr) {
	switch w.lockMethod(call) {
	case "Lock", "RLock":
		site := LockSite{
			Key:  w.lockKey(call.Fun.(*ast.SelectorExpr).X),
			Pos:  call.Pos(),
			Read: w.lockMethod(call) == "RLock",
		}
		for _, h := range w.held {
			w.sum.Edges = append(w.sum.Edges, LockEdge{From: h, To: site})
		}
		w.sum.Acquires = append(w.sum.Acquires, site)
		w.held = append(w.held, site)
		return
	case "Unlock", "RUnlock":
		key := w.lockKey(call.Fun.(*ast.SelectorExpr).X)
		for i := len(w.held) - 1; i >= 0; i-- {
			if w.held[i].Key == key {
				w.held = append(w.held[:i], w.held[i+1:]...)
				break
			}
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if w.pkg.Info == nil || w.pkg.Info.Uses[id] == nil { // builtin, not shadowed
				w.alloc(call.Pos(), "make")
			}
		case "new":
			if w.pkg.Info == nil || w.pkg.Info.Uses[id] == nil {
				w.alloc(call.Pos(), "new")
			}
		case "append":
			// Bare append in expression position: growth unless the
			// destination is tracked preallocated (assign handles the
			// common x = append(x, …) form before reaching here).
		}
	}
	w.callSite(call, w.heldCopy())
	for _, a := range call.Args {
		w.expr(a)
	}
	if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(fun.X)
	}
}

func (w *bodyWalker) callSite(call *ast.CallExpr, held []LockSite) {
	w.sum.Calls = append(w.sum.Calls, CallSite{
		Call:   call,
		Callee: w.calleeOf(call),
		Held:   held,
		InLoop: w.loopDepth > 0,
	})
}

// calleeOf statically resolves a call target to a *types.Func, or nil
// for dynamic calls.
func (w *bodyWalker) calleeOf(call *ast.CallExpr) *types.Func {
	if w.pkg.Info == nil {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := w.pkg.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := w.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// lockMethod classifies a call as a sync.Mutex/RWMutex operation,
// returning "" otherwise.
func (w *bodyWalker) lockMethod(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return ""
	}
	t := w.typeOf(sel.X)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return ""
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return sel.Sel.Name
	}
	return ""
}

// lockKey derives a stable identity for the mutex expression: the
// owning named type and field for struct mutexes, the package variable
// path for globals, and a function-scoped name for locals.
func (w *bodyWalker) lockKey(x ast.Expr) string {
	x = ast.Unparen(x)
	switch e := x.(type) {
	case *ast.SelectorExpr:
		// owner.field — prefer the owner's named type.
		if t := w.typeOf(e.X); t != nil {
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
		}
		// pkgname.Var or pkg-level var of anonymous struct type.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && w.pkg.Info != nil {
			switch obj := w.pkg.Info.Uses[id].(type) {
			case *types.PkgName:
				return obj.Imported().Path() + "." + e.Sel.Name
			case *types.Var:
				if obj.Parent() == obj.Pkg().Scope() {
					return obj.Pkg().Path() + "." + obj.Name() + "." + e.Sel.Name
				}
			}
		}
		return w.scopedKey(types.ExprString(x))
	case *ast.Ident:
		if w.pkg.Info != nil {
			if obj, ok := w.pkg.Info.Uses[e].(*types.Var); ok && obj.Pkg() != nil {
				if obj.Parent() == obj.Pkg().Scope() {
					return obj.Pkg().Path() + "." + obj.Name()
				}
			}
		}
		return w.scopedKey(e.Name)
	}
	return w.scopedKey(types.ExprString(x))
}

// scopedKey qualifies an unresolvable mutex expression by package and
// enclosing function so distinct locals never collide.
func (w *bodyWalker) scopedKey(expr string) string {
	owner := "lit"
	if w.sum.Fn != nil {
		owner = w.sum.Fn.Name()
	}
	return w.pkg.Path + "." + owner + "." + expr
}

// forever marks the summary when a condition-less for loop has no
// reachable exit.
func (w *bodyWalker) forever(st *ast.ForStmt) {
	if st.Cond != nil || w.sum.LoopsForever {
		return
	}
	if loopHasExit(st, w.loopLabels[st]) {
		return
	}
	w.sum.LoopsForever = true
	w.sum.ForeverLoop = st.Pos()
}

// loopHasExit reports whether a condition-less for loop contains a
// statement that leaves it: a return, a break that targets it, a goto,
// or a call that never returns (panic, os.Exit, log.Fatal*,
// runtime.Goexit).
func loopHasExit(loop *ast.ForStmt, label string) bool {
	found := false
	// depth counts enclosing breakables between a break and this loop.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if found || n == nil {
			return
		}
		switch st := n.(type) {
		case *ast.FuncLit:
			return // returns inside closures exit the closure only
		case *ast.ReturnStmt:
			found = true
			return
		case *ast.BranchStmt:
			switch st.Tok {
			case token.BREAK:
				if st.Label == nil && depth == 0 {
					found = true
				} else if st.Label != nil && st.Label.Name == label {
					found = true
				}
			case token.GOTO:
				found = true
			}
			return
		case *ast.CallExpr:
			if isNoReturnCall(st) {
				found = true
				return
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			ast.Inspect(n, func(inner ast.Node) bool {
				if inner == n {
					return true
				}
				walk(inner, depth+1)
				return false
			})
			return
		}
		ast.Inspect(n, func(inner ast.Node) bool {
			if inner == n {
				return true
			}
			walk(inner, depth)
			return false
		})
	}
	walk(loop.Body, 0)
	return found
}

// isNoReturnCall matches calls that terminate the goroutine: panic,
// os.Exit, runtime.Goexit, and log.Fatal variants.
func isNoReturnCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case id.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case id.Name == "runtime" && fun.Sel.Name == "Goexit":
			return true
		case id.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"):
			return true
		}
	}
	return false
}

// isBuiltin matches an unshadowed use of a builtin by name.
func isBuiltin(fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	return ok && id.Name == name
}
