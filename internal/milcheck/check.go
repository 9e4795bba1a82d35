package milcheck

import (
	"fmt"
	"sort"
	"strings"

	"cobra/internal/mil"
	"cobra/internal/monet"
)

// Options configures a check run.
type Options struct {
	// Globals pre-binds variables the session environment provides
	// (e.g. BATs published via Interp.SetGlobal) with their types; use
	// Any() when the type is unknown.
	Globals map[string]VType
	// Funcs adds callable signatures beyond the stdlib, e.g. extension
	// operations registered by MEL-style modules. Keys are
	// case-insensitive.
	Funcs map[string]Sig
	// KnownFuncs names callables that exist but have no signature;
	// calls to them accept any arguments and return Any.
	KnownFuncs []string
	// ResolveBAT resolves bat("name") calls with literal names against
	// a store schema, giving plans over registered BATs precise column
	// types.
	ResolveBAT func(name string) (head, tail monet.Type, ok bool)
	// LenientCalls downgrades calls to unknown functions from errors
	// to warnings, for sessions that register builtins dynamically.
	LenientCalls bool
}

// Result is the outcome of analyzing a program.
type Result struct {
	Diags []Diagnostic
	// Vars holds the final inferred types of top-level variables.
	Vars map[string]VType
	// Value is the type of the program's result: a top-level RETURN,
	// or the last top-level expression statement.
	Value VType
	// Registered maps BAT names register()ed with literal names to
	// their inferred types.
	Registered map[string]VType
}

// Analyze runs the full static analysis over a parsed program.
func Analyze(prog *mil.Program, opts *Options) *Result {
	if opts == nil {
		opts = &Options{}
	}
	c := newChecker(opts)
	c.collectProcs(prog.Stmts)
	c.resolveProcRets()
	res := &Result{Value: None()}

	terminated := false
	for i, s := range prog.Stmts {
		if terminated {
			l, col := s.Pos()
			c.warnf(l, col, "unreachable", "unreachable statement")
			terminated = true // report once, keep checking
			c.silent = true
		}
		t := c.exec(s)
		if !c.silent {
			if t.terminates {
				terminated = true
			}
			if _, ok := s.(*mil.ExprStmt); ok && i == len(prog.Stmts)-1 {
				res.Value = t.val
			}
		}
	}
	c.silent = false
	if len(c.topRets) > 0 {
		res.Value = c.topRets[0]
		for _, t := range c.topRets[1:] {
			res.Value = merge(res.Value, t)
		}
	}
	c.popScope()
	res.Vars = map[string]VType{}
	for name, vi := range c.rootVars {
		res.Vars[name] = vi.typ
	}
	res.Registered = c.registered
	sortDiags(c.diags)
	res.Diags = c.diags
	return res
}

// Check analyzes a parsed program and returns its diagnostics.
func Check(prog *mil.Program, opts *Options) []Diagnostic {
	return Analyze(prog, opts).Diags
}

// CheckSource parses and analyzes MIL source. Parse errors (which
// carry their own line/col) are returned as err; semantic findings
// come back as diagnostics.
func CheckSource(src string, opts *Options) ([]Diagnostic, error) {
	prog, err := mil.Parse(src)
	if err != nil {
		return nil, err
	}
	return Check(prog, opts), nil
}

// varInfo tracks one declared variable.
type varInfo struct {
	name  string
	typ   VType
	line  int
	col   int
	used  bool
	param bool
}

// scope is one lexical scope level.
type scope struct {
	parent *scope
	depth  int
	vars   map[string]*varInfo
	order  []string
}

// accessKind records how a PARALLEL branch touches a shared variable.
type accessKind uint8

const (
	accRead accessKind = 1 << iota
	accAssign
	accMutate
)

// branchAccess is the access profile of one branch for one variable.
type branchAccess struct {
	mask accessKind
	// first position per kind, for diagnostics
	readL, readC     int
	assignL, assignC int
	mutateL, mutateC int
}

// parCtx tracks shared-variable accesses across the branches of one
// PARALLEL block.
type parCtx struct {
	line, col int
	depth     int // depth of the scope enclosing the block
	branch    int // current branch index
	acc       map[string]map[int]*branchAccess
	order     []string
}

// procInfo is a collected PROC declaration plus its resolved return
// type.
type procInfo struct {
	decl  *mil.ProcDecl
	ret   VType
	state uint8 // 0 unresolved, 1 resolving, 2 resolved
}

type checker struct {
	opts     *Options
	funcs    map[string]Sig
	known    map[string]bool
	procs    map[string]*procInfo
	diags    []Diagnostic
	scope    *scope
	rootVars map[string]*varInfo
	parStack []*parCtx
	// registered maps literal names register()ed so far to the BAT
	// type, so later bat("name") calls in the same plan resolve.
	registered map[string]VType
	// retTypes collects RETURN types of the proc body being checked;
	// nil at top level.
	retTypes *[]VType
	topRets  []VType
	silent   bool
}

func newChecker(opts *Options) *checker {
	c := &checker{
		opts:       opts,
		funcs:      stdlibSigs(),
		known:      map[string]bool{},
		procs:      map[string]*procInfo{},
		registered: map[string]VType{},
	}
	for name, sig := range opts.Funcs {
		c.funcs[strings.ToLower(name)] = sig
	}
	for _, name := range opts.KnownFuncs {
		c.known[strings.ToLower(name)] = true
	}
	c.scope = &scope{vars: map[string]*varInfo{}}
	c.rootVars = c.scope.vars
	// The interpreter pre-binds atomic type names as string globals so
	// the constructor syntax new(void,int) evaluates.
	for _, tn := range []string{"void", "oid", "int", "lng", "dbl", "flt", "str", "bit", "bool"} {
		c.scope.vars[tn] = &varInfo{name: tn, typ: AtomOf(monet.StrT), used: true}
	}
	for name, t := range opts.Globals {
		c.scope.vars[name] = &varInfo{name: name, typ: t, used: true}
	}
	return c
}

func (c *checker) report(line, col int, sev Severity, code, format string, args ...any) {
	if c.silent {
		return
	}
	c.diags = append(c.diags, Diagnostic{Line: line, Col: col, Severity: sev,
		Code: code, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) errorf(line, col int, code, format string, args ...any) {
	c.report(line, col, Error, code, format, args...)
}

func (c *checker) warnf(line, col int, code, format string, args ...any) {
	c.report(line, col, Warning, code, format, args...)
}

func (c *checker) pushScope() {
	c.scope = &scope{parent: c.scope, depth: c.scope.depth + 1, vars: map[string]*varInfo{}}
}

// popScope leaves the current scope, reporting variables that were
// declared but never read. Underscore-prefixed names opt out.
func (c *checker) popScope() {
	s := c.scope
	for _, name := range s.order {
		vi := s.vars[name]
		if vi == nil || vi.used || vi.param || strings.HasPrefix(vi.name, "_") {
			continue
		}
		c.warnf(vi.line, vi.col, "unused-var", "variable %q is declared but never read", vi.name)
	}
	c.scope = s.parent
}

// define declares a variable in the current scope.
func (c *checker) define(name string, t VType, line, col int, param bool) {
	if prev, ok := c.scope.vars[name]; ok && !prev.param {
		c.warnf(line, col, "redeclared", "variable %q redeclared in the same scope (first declared at %d:%d)",
			name, prev.line, prev.col)
	}
	c.scope.vars[name] = &varInfo{name: name, typ: t, line: line, col: col, param: param}
	c.scope.order = append(c.scope.order, name)
}

// resolve finds a variable walking outward; it returns the holding
// scope's depth for PARALLEL sharing analysis.
func (c *checker) resolve(name string) (*varInfo, int, bool) {
	for s := c.scope; s != nil; s = s.parent {
		if vi, ok := s.vars[name]; ok {
			return vi, s.depth, true
		}
	}
	return nil, 0, false
}

// recordAccess notes an access to a variable held at scopeDepth for
// every PARALLEL block whose branches can share it.
func (c *checker) recordAccess(name string, scopeDepth int, kind accessKind, line, col int) {
	for _, ctx := range c.parStack {
		if scopeDepth > ctx.depth {
			continue // branch-local for this block
		}
		byBranch := ctx.acc[name]
		if byBranch == nil {
			byBranch = map[int]*branchAccess{}
			ctx.acc[name] = byBranch
			ctx.order = append(ctx.order, name)
		}
		ba := byBranch[ctx.branch]
		if ba == nil {
			ba = &branchAccess{}
			byBranch[ctx.branch] = ba
		}
		if ba.mask&kind == 0 {
			ba.mask |= kind
			switch kind {
			case accRead:
				ba.readL, ba.readC = line, col
			case accAssign:
				ba.assignL, ba.assignC = line, col
			case accMutate:
				ba.mutateL, ba.mutateC = line, col
			}
		}
	}
}

// collectProcs gathers every PROC declaration in the statement tree so
// calls resolve regardless of declaration order.
func (c *checker) collectProcs(stmts []mil.Stmt) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *mil.ProcDecl:
			name := strings.ToLower(st.Name)
			if prev, ok := c.procs[name]; ok {
				l, col := st.Pos()
				pl, pc := prev.decl.Pos()
				c.warnf(l, col, "proc-redefined", "PROC %q redefined (first declared at %d:%d)", st.Name, pl, pc)
			}
			c.procs[name] = &procInfo{decl: st, ret: specType(st.Ret)}
			c.collectProcs(st.Body.Stmts)
		case *mil.Block:
			c.collectProcs(st.Stmts)
		case *mil.ParallelBlock:
			c.collectProcs(st.Stmts)
		case *mil.If:
			c.collectProcs(st.Then.Stmts)
			if st.Else != nil {
				c.collectProcs(st.Else.Stmts)
			}
		case *mil.While:
			c.collectProcs(st.Body.Stmts)
		}
	}
}

// resolveProcRets infers return types for PROCs without annotations by
// silently checking their bodies; recursion falls back to Any.
func (c *checker) resolveProcRets() {
	for name := range c.procs {
		c.resolveProcRet(name)
	}
}

func (c *checker) resolveProcRet(name string) VType {
	p, ok := c.procs[name]
	if !ok {
		return Any()
	}
	switch p.state {
	case 1: // recursive: cut the cycle
		return p.ret
	case 2:
		return p.ret
	}
	p.state = 1
	if p.decl.Ret == nil {
		wasSilent := c.silent
		c.silent = true
		rets, _ := c.checkProcBody(p.decl)
		c.silent = wasSilent
		if len(rets) > 0 {
			t := rets[0]
			for _, r := range rets[1:] {
				t = merge(t, r)
			}
			p.ret = t
		}
	}
	p.state = 2
	return p.ret
}

// checkProcBody checks a PROC body in a fresh scope seeded with its
// parameters, returning the RETURN types seen and whether every path
// returns.
func (c *checker) checkProcBody(decl *mil.ProcDecl) ([]VType, bool) {
	outerScope := c.scope
	outerRets := c.retTypes
	outerPar := c.parStack
	c.scope = &scope{parent: nil, depth: 0, vars: map[string]*varInfo{}}
	// Procs see globals (the interpreter's callProc scope delegates to
	// globals), so re-root on the root scope.
	root := outerScope
	for root.parent != nil {
		root = root.parent
	}
	c.scope.parent = root
	c.scope.depth = root.depth + 1
	c.parStack = nil

	seen := map[string]bool{}
	for _, p := range decl.Params {
		if seen[p.Name] {
			c.errorf(p.Line, p.Col, "dup-param", "duplicate parameter %q", p.Name)
		}
		seen[p.Name] = true
		t := AtomOf(p.Atom)
		if p.IsBAT {
			t = BATOf(p.Head, p.Tail)
		}
		c.define(p.Name, t, p.Line, p.Col, true)
	}

	var rets []VType
	c.retTypes = &rets
	terminated := false
	reported := false
	for _, s := range decl.Body.Stmts {
		if terminated && !reported {
			l, col := s.Pos()
			c.warnf(l, col, "unreachable", "unreachable statement")
			reported = true
		}
		if c.exec(s).terminates {
			terminated = true
		}
	}
	c.popScope()
	c.scope = outerScope
	c.retTypes = outerRets
	c.parStack = outerPar
	return rets, terminated
}

// flow is the result of checking one statement: whether control flow
// terminates, and for expression statements the expression's type.
type flow struct {
	terminates bool
	val        VType
}

func (c *checker) exec(s mil.Stmt) flow {
	switch st := s.(type) {
	case *mil.VarDecl:
		t := c.eval(st.Init)
		l, col := st.Pos()
		if t.Kind == NoneK {
			c.errorf(l, col, "no-value", "initializer of %q produces no value", st.Name)
			t = Any()
		}
		if st.Type != nil {
			declared := specType(st.Type)
			if !assignable(declared, t) {
				c.errorf(l, col, "type-mismatch", "cannot initialize %s %q with %s", declared, st.Name, t)
			}
			t = declared
		}
		c.define(st.Name, t, l, col, false)
		return flow{}

	case *mil.Assign:
		t := c.eval(st.Expr)
		l, col := st.Pos()
		if t.Kind == NoneK {
			c.errorf(l, col, "no-value", "assignment to %q from an expression that produces no value", st.Name)
			t = Any()
		}
		vi, depth, ok := c.resolve(st.Name)
		if !ok {
			c.errorf(l, col, "unbound-var", "assignment to undeclared variable %q (declare it with VAR)", st.Name)
			c.define(st.Name, t, l, col, false)
			return flow{}
		}
		if !assignable(vi.typ, t) {
			c.errorf(l, col, "type-mismatch", "cannot assign %s to %q of type %s", t, st.Name, vi.typ)
		} else if vi.typ.Kind != AnyK {
			vi.typ = merge(vi.typ, t)
		} else {
			vi.typ = t
		}
		c.recordAccess(st.Name, depth, accAssign, l, col)
		return flow{}

	case *mil.ExprStmt:
		return flow{val: c.eval(st.Expr)}

	case *mil.Return:
		t := c.eval(st.Expr)
		l, col := st.Pos()
		if len(c.parStack) > 0 {
			c.warnf(l, col, "return-in-parallel", "RETURN inside a PARALLEL block returns from a nondeterministic branch")
		}
		if c.retTypes != nil {
			*c.retTypes = append(*c.retTypes, t)
		} else {
			c.topRets = append(c.topRets, t)
		}
		return flow{terminates: true}

	case *mil.If:
		c.checkCond(st.Cond)
		c.pushScope()
		thenTerm := c.execStmts(st.Then.Stmts)
		c.popScope()
		elseTerm := false
		if st.Else != nil {
			c.pushScope()
			elseTerm = c.execStmts(st.Else.Stmts)
			c.popScope()
		}
		return flow{terminates: thenTerm && elseTerm}

	case *mil.While:
		c.checkCond(st.Cond)
		c.pushScope()
		c.execStmts(st.Body.Stmts)
		c.popScope()
		return flow{}

	case *mil.Block:
		c.pushScope()
		term := c.execStmts(st.Stmts)
		c.popScope()
		return flow{terminates: term}

	case *mil.ParallelBlock:
		l, col := st.Pos()
		ctx := &parCtx{line: l, col: col, depth: c.scope.depth, acc: map[string]map[int]*branchAccess{}}
		c.parStack = append(c.parStack, ctx)
		for i, branch := range st.Stmts {
			ctx.branch = i
			c.pushScope()
			c.exec(branch)
			c.popScope()
		}
		c.parStack = c.parStack[:len(c.parStack)-1]
		c.reportParallelConflicts(ctx)
		return flow{}

	case *mil.ProcDecl:
		rets, allReturn := c.checkProcBody(st)
		l, col := st.Pos()
		if st.Ret != nil {
			declared := specType(st.Ret)
			for _, r := range rets {
				if !assignable(declared, r) {
					c.errorf(l, col, "type-mismatch", "PROC %q declared to return %s but returns %s", st.Name, declared, r)
				}
			}
			if !allReturn {
				c.warnf(l, col, "missing-return", "PROC %q declares return type %s but not every path RETURNs", st.Name, declared)
			}
		}
		if len(c.parStack) > 0 {
			c.warnf(l, col, "proc-in-parallel", "PROC declaration inside a PARALLEL block registers globally from a branch")
		}
		return flow{}
	}
	return flow{}
}

// execStmts checks a statement list, reporting the first unreachable
// statement after a terminating one.
func (c *checker) execStmts(stmts []mil.Stmt) (terminates bool) {
	reported := false
	for _, s := range stmts {
		if terminates && !reported {
			l, col := s.Pos()
			c.warnf(l, col, "unreachable", "unreachable statement")
			reported = true
		}
		if c.exec(s).terminates {
			terminates = true
		}
	}
	return terminates
}

// checkCond checks an IF/WHILE condition expression.
func (c *checker) checkCond(e mil.Expr) {
	t := c.eval(e)
	l, col := e.Pos()
	if t.Kind == NoneK {
		c.errorf(l, col, "no-value", "condition produces no value")
	}
	if lit, ok := e.(*mil.Lit); ok && lit.Val.Typ == monet.BoolT {
		c.warnf(l, col, "const-cond", "condition is constant %v", lit.Val.Bool())
	}
}

// reportParallelConflicts flags unsafe sharing across the branches of
// one PARALLEL block: assignments to the same outer variable from two
// branches (write-write), an assignment in one branch with any use in
// another (read-write), and in-place mutation racing a read.
func (c *checker) reportParallelConflicts(ctx *parCtx) {
	for _, name := range ctx.order {
		byBranch := ctx.acc[name]
		branches := make([]int, 0, len(byBranch))
		for b := range byBranch {
			branches = append(branches, b)
		}
		sort.Ints(branches)
		var assigns, mutates, reads []*branchAccess
		for _, b := range branches {
			ba := byBranch[b]
			if ba.mask&accAssign != 0 {
				assigns = append(assigns, ba)
			}
			if ba.mask&accMutate != 0 {
				mutates = append(mutates, ba)
			}
			if ba.mask&accRead != 0 && ba.mask&(accAssign|accMutate) == 0 {
				reads = append(reads, ba)
			}
		}
		switch {
		case len(assigns) >= 2:
			c.errorf(assigns[1].assignL, assigns[1].assignC, "parallel-write-write",
				"variable %q assigned in %d PARALLEL branches (also at %d:%d); last write wins nondeterministically",
				name, len(assigns), assigns[0].assignL, assigns[0].assignC)
		case len(assigns) == 1 && (len(reads) > 0 || len(mutates) > 0):
			other := ctx.line
			otherC := ctx.col
			if len(reads) > 0 {
				other, otherC = reads[0].readL, reads[0].readC
			} else {
				other, otherC = mutates[0].mutateL, mutates[0].mutateC
			}
			c.errorf(assigns[0].assignL, assigns[0].assignC, "parallel-read-write",
				"variable %q assigned in one PARALLEL branch and used in another (at %d:%d)",
				name, other, otherC)
		case len(mutates) >= 1 && len(reads) > 0:
			c.warnf(reads[0].readL, reads[0].readC, "parallel-mutate-read",
				"variable %q read here while another PARALLEL branch mutates it (at %d:%d)",
				name, mutates[0].mutateL, mutates[0].mutateC)
		}
	}
}

func (c *checker) eval(e mil.Expr) VType {
	switch ex := e.(type) {
	case *mil.Lit:
		return AtomOf(ex.Val.Typ)

	case *mil.Ident:
		vi, depth, ok := c.resolve(ex.Name)
		if !ok {
			l, col := ex.Pos()
			c.errorf(l, col, "unbound-var", "undefined variable %q", ex.Name)
			return Any()
		}
		vi.used = true
		l, col := ex.Pos()
		c.recordAccess(ex.Name, depth, accRead, l, col)
		return vi.typ

	case *mil.Unary:
		t := c.eval(ex.X)
		l, col := ex.Pos()
		if t.Kind == BATK || t.Kind == NoneK ||
			(t.Kind == AtomK && t.Atom != AnyAtom && t.Atom != monet.IntT && t.Atom != monet.FloatT) {
			c.errorf(l, col, "type-mismatch", "cannot negate %s", t)
			return AnyAtomType()
		}
		return t

	case *mil.Binary:
		return c.evalBinary(ex)

	case *mil.Call:
		return c.evalCall(ex)

	case *mil.MethodCall:
		return c.evalMethod(ex)
	}
	return Any()
}

func (c *checker) evalBinary(ex *mil.Binary) VType {
	l := c.eval(ex.L)
	r := c.eval(ex.R)
	line, col := ex.Pos()
	if l.Kind == BATK || r.Kind == BATK {
		c.errorf(line, col, "type-mismatch", "operator %q over BAT operands", ex.Op)
		return AnyAtomType()
	}
	if l.Kind == NoneK || r.Kind == NoneK {
		c.errorf(line, col, "no-value", "operand of %q produces no value", ex.Op)
		return AnyAtomType()
	}
	known := l.Kind == AtomK && l.Atom != AnyAtom && r.Kind == AtomK && r.Atom != AnyAtom
	switch ex.Op {
	case "=", "!=", "<", ">", "<=", ">=":
		if known && l.Atom != r.Atom && !(numericAtom(l.Atom) && numericAtom(r.Atom)) {
			c.errorf(line, col, "type-mismatch", "comparing %s with %s", l, r)
		}
		return AtomOf(monet.BoolT)
	case "+":
		if known && l.Atom == monet.StrT && r.Atom == monet.StrT {
			return AtomOf(monet.StrT)
		}
		fallthrough
	case "-", "*", "/", "%":
		if !l.IsNumeric() || !r.IsNumeric() {
			c.errorf(line, col, "type-mismatch", "operator %q over %s and %s", ex.Op, l, r)
			return AnyAtomType()
		}
		if known && l.Atom == monet.IntT && r.Atom == monet.IntT {
			return AtomOf(monet.IntT)
		}
		if ex.Op == "%" {
			if known {
				c.errorf(line, col, "type-mismatch", "modulo over non-integer operands %s and %s", l, r)
			}
			return AnyAtomType()
		}
		if !known {
			return AnyAtomType()
		}
		return AtomOf(monet.FloatT)
	}
	return AnyAtomType()
}

// litStr returns the string literal value of an expression, if it is
// one.
func litStr(e mil.Expr) (string, bool) {
	lit, ok := e.(*mil.Lit)
	if !ok || lit.Val.Typ != monet.StrT {
		return "", false
	}
	return lit.Val.Str(), true
}

// typeNameArg resolves a `new` type argument: a bare type-name
// identifier or a string literal.
func typeNameArg(e mil.Expr) (monet.Type, bool) {
	var name string
	switch a := e.(type) {
	case *mil.Ident:
		name = a.Name
	case *mil.Lit:
		if a.Val.Typ != monet.StrT {
			return 0, false
		}
		name = a.Val.Str()
	default:
		return 0, false
	}
	t, err := mil.ParseTypeName(name)
	if err != nil {
		return 0, false
	}
	return t, true
}

func (c *checker) evalCall(ex *mil.Call) VType {
	line, col := ex.Pos()
	name := strings.ToLower(ex.Name)

	// The constructor's type arguments are identifiers, not values;
	// resolve them by name before ordinary evaluation.
	if name == "new" {
		if len(ex.Args) != 2 {
			c.errorf(line, col, "bad-call", "new expects 2 type arguments, got %d", len(ex.Args))
			return AnyBAT()
		}
		h, okH := typeNameArg(ex.Args[0])
		t, okT := typeNameArg(ex.Args[1])
		if okH && okT {
			return BATOf(h, t)
		}
		// Not literal type names: check them as ordinary str values.
		for i, a := range ex.Args {
			at := c.eval(a)
			if msg := wantStr(at); msg != "" {
				al, ac := a.Pos()
				c.errorf(al, ac, "bad-call", "new argument %d: %s", i+1, msg)
			}
		}
		return AnyBAT()
	}

	args := make([]VType, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = c.eval(a)
	}

	// The index builder writes shared per-BAT index state under the
	// column's index lock: branches of a PARALLEL block calling it wait
	// on one another for a single build, so flag it there.
	if name == "zonemap" && len(c.parStack) > 0 {
		c.warnf(line, col, "index-in-parallel",
			"zonemap() builds shared index state under the column's index lock; inside a PARALLEL block the branches serialize on it")
	}

	switch name {
	case "print":
		return None()
	case "bat":
		if len(args) != 1 {
			c.errorf(line, col, "bad-call", "bat expects 1 argument, got %d", len(args))
			return AnyBAT()
		}
		if msg := wantStr(args[0]); msg != "" {
			c.errorf(line, col, "bad-call", "bat argument 1: %s", msg)
			return AnyBAT()
		}
		if lit, ok := litStr(ex.Args[0]); ok {
			if t, ok := c.registered[lit]; ok {
				return t
			}
			if c.opts.ResolveBAT != nil {
				if h, t, ok := c.opts.ResolveBAT(lit); ok {
					return BATOf(h, t)
				}
				c.warnf(line, col, "unknown-bat", "BAT %q is not registered in the store", lit)
			}
		}
		return AnyBAT()
	case "register":
		if len(args) != 2 {
			c.errorf(line, col, "bad-call", "register expects 2 arguments, got %d", len(args))
			return AnyBAT()
		}
		if msg := wantStr(args[0]); msg != "" {
			c.errorf(line, col, "bad-call", "register argument 1: %s", msg)
		}
		if msg := wantBAT(args[1]); msg != "" {
			c.errorf(line, col, "bad-call", "register argument 2: %s", msg)
		}
		if lit, ok := litStr(ex.Args[0]); ok && args[1].Kind == BATK {
			c.registered[lit] = args[1]
		}
		return args[1]
	}

	// User PROCs shadow builtins, matching the interpreter's dispatch.
	if p, ok := c.procs[name]; ok {
		c.checkProcCall(ex, p, args)
		return c.resolveProcRet(name)
	}
	if sig, ok := c.funcs[name]; ok {
		res, problem := sig(args)
		if problem != "" {
			c.errorf(line, col, "bad-call", "%s", problem)
		}
		return res
	}
	if c.known[name] {
		return Any()
	}
	sev := Error
	if c.opts.LenientCalls {
		sev = Warning
	}
	c.report(line, col, sev, "unknown-func", "call to unknown function %q", ex.Name)
	return Any()
}

// checkProcCall verifies a call against a PROC's declared parameters.
func (c *checker) checkProcCall(ex *mil.Call, p *procInfo, args []VType) {
	line, col := ex.Pos()
	params := p.decl.Params
	if len(args) != len(params) {
		c.errorf(line, col, "bad-call", "PROC %q expects %d argument(s), got %d", p.decl.Name, len(params), len(args))
		return
	}
	for i, prm := range params {
		a := args[i]
		if prm.IsBAT {
			if !a.IsBAT() {
				c.errorf(line, col, "bad-call", "PROC %q parameter %q expects a BAT, got %s", p.decl.Name, prm.Name, a)
				continue
			}
			want := BATOf(prm.Head, prm.Tail)
			if a.Kind == BATK && (!atomsUnify(a.Head, prm.Head) || !atomsUnify(a.Tail, prm.Tail)) {
				c.errorf(line, col, "type-mismatch", "PROC %q parameter %q expects %s, got %s", p.decl.Name, prm.Name, want, a)
			}
			continue
		}
		if !a.IsAtom() {
			c.errorf(line, col, "bad-call", "PROC %q parameter %q expects an atom, got %s", p.decl.Name, prm.Name, a)
			continue
		}
		if a.Kind == AtomK && !atomsUnify(a.Atom, prm.Atom) && !(numericAtom(a.Atom) && numericAtom(prm.Atom)) {
			c.errorf(line, col, "type-mismatch", "PROC %q parameter %q expects %s, got %s", p.decl.Name, prm.Name, AtomOf(prm.Atom), a)
		}
	}
}

// baseIdent unwraps method-call chains to the underlying variable, if
// any: (x.reverse).insert mutates x's columns.
func baseIdent(e mil.Expr) *mil.Ident {
	for {
		switch x := e.(type) {
		case *mil.Ident:
			return x
		case *mil.MethodCall:
			e = x.Recv
		default:
			return nil
		}
	}
}

func (c *checker) evalMethod(ex *mil.MethodCall) VType {
	recv := c.eval(ex.Recv)
	args := make([]VType, len(ex.Args))
	for i, a := range ex.Args {
		args[i] = c.eval(a)
	}
	line, col := ex.Pos()
	name := strings.ToLower(ex.Name)
	if recv.Kind == NoneK || recv.Kind == AtomK {
		c.errorf(line, col, "type-mismatch", "method %q on non-BAT value of type %s", ex.Name, recv)
		return Any()
	}
	res, problem, knownMethod := methodSig(name, recv, args)
	if !knownMethod {
		c.errorf(line, col, "unknown-method", "unknown BAT method %q", ex.Name)
		return Any()
	}
	if problem != "" {
		c.errorf(line, col, "bad-call", "%s", problem)
	}
	// In-place mutation of a shared receiver matters to the PARALLEL
	// safety pass; the interpreter serializes it, so it is not itself
	// a conflict.
	if name == "insert" {
		if id := baseIdent(ex.Recv); id != nil {
			if _, depth, ok := c.resolve(id.Name); ok {
				c.recordAccess(id.Name, depth, accMutate, line, col)
			}
		}
	}
	// Higher-order methods take a PROC name literal; verify it.
	if (name == "map" || name == "filterproc") && len(ex.Args) == 1 {
		if procName, ok := litStr(ex.Args[0]); ok {
			p, exists := c.procs[strings.ToLower(procName)]
			if !exists {
				c.errorf(line, col, "unbound-var", "%s references unknown PROC %q", name, procName)
			} else {
				if len(p.decl.Params) != 2 || p.decl.Params[0].IsBAT || p.decl.Params[1].IsBAT {
					c.errorf(line, col, "bad-call", "%s PROC %q must take (atom, atom) parameters", name, procName)
				}
				if name == "map" {
					ret := c.resolveProcRet(strings.ToLower(procName))
					if ret.Kind == BATK {
						c.errorf(line, col, "bad-call", "map PROC %q must return an atom, not a BAT", procName)
					} else if ret.Kind == AtomK && res.Kind == BATK {
						res = BATOf(res.Head, ret.Atom)
					}
				}
			}
		}
	}
	return res
}
