package mil

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cobra/internal/monet"
	"cobra/internal/obs"
)

// MIL interpretation metrics: per-program latency, statement volume
// and the fan-out of Fig. 4-style PARALLEL blocks.
var (
	hRunLat            = obs.H("mil.run.latency")
	cStatements        = obs.C("mil.statements")
	cParallelBlocks    = obs.C("mil.parallel.blocks")
	cParallelBranches  = obs.C("mil.parallel.branches")
	hParallelBlockTime = obs.H("mil.parallel.latency")
)

// Value is a MIL runtime value: an atomic kernel value, a BAT, or a
// procedure reference.
type Value struct {
	Atom monet.Value
	BAT  *monet.BAT
	Proc *ProcDecl
	// stored is the store name of a BAT value bat() fetched, or of a
	// view sharing its columns. Such a value is read-only, and its
	// selects take the store's access path while the store still holds
	// that same BAT.
	stored string
}

// IsBAT reports whether the value holds a BAT.
func (v Value) IsBAT() bool { return v.BAT != nil }

// AtomValue wraps an atomic kernel value.
func AtomValue(a monet.Value) Value { return Value{Atom: a} }

// BATValue wraps a BAT.
func BATValue(b *monet.BAT) Value { return Value{BAT: b} }

// String renders the value for the shell.
func (v Value) String() string {
	switch {
	case v.BAT != nil:
		return v.BAT.Dump(16)
	case v.Proc != nil:
		return "proc " + v.Proc.Name
	default:
		return v.Atom.String()
	}
}

// Builtin is a host function registered with the interpreter, the MEL
// extension-module mechanism.
type Builtin func(in *Interp, args []Value) (Value, error)

// Interp executes MIL programs against a kernel store.
type Interp struct {
	store    *monet.Store
	builtins map[string]Builtin

	// MaxSteps bounds the number of statements one Run may execute; 0
	// means unbounded. Fuzzing and untrusted plans set it so WHILE
	// loops stay finite.
	MaxSteps int64
	steps    atomic.Int64

	mu        sync.Mutex // guards globals, procs, output, and threadCnt
	procs     map[string]*ProcDecl
	globals   map[string]Value
	output    []string
	threadCnt int
}

// ErrBudget is returned when a Run exceeds the MaxSteps statement
// budget.
var ErrBudget = errors.New("mil: statement budget exceeded")

// proc looks up a declared procedure under the interpreter lock;
// PARALLEL branches may declare procedures while others call them.
func (in *Interp) proc(name string) (*ProcDecl, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	p, ok := in.procs[name]
	return p, ok
}

// ErrUndefined is returned when a name is not bound.
var ErrUndefined = errors.New("mil: undefined name")

// errReturn carries a RETURN value up the evaluation stack.
type errReturn struct{ val Value }

func (errReturn) Error() string { return "mil: return outside procedure" }

// NewInterp returns an interpreter bound to the given store (which may
// be nil for a store-less session). Standard builtins are installed.
func NewInterp(store *monet.Store) *Interp {
	in := &Interp{
		store:     store,
		builtins:  map[string]Builtin{},
		procs:     map[string]*ProcDecl{},
		globals:   map[string]Value{},
		threadCnt: 1,
	}
	in.installStdlib()
	// Bind atomic type names as string globals so the paper's
	// constructor syntax new(void,int) evaluates its arguments to the
	// type names themselves.
	for _, tn := range []string{"void", "oid", "int", "lng", "dbl", "flt", "str", "bit", "bool"} {
		in.globals[tn] = AtomValue(monet.NewStr(tn))
	}
	return in
}

// Register installs a builtin function under the given name,
// mirroring a MEL extension module.
func (in *Interp) Register(name string, fn Builtin) {
	in.builtins[strings.ToLower(name)] = fn
}

// SetGlobal binds a global variable.
func (in *Interp) SetGlobal(name string, v Value) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.globals[name] = v
}

// Global returns a global variable.
func (in *Interp) Global(name string) (Value, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	v, ok := in.globals[name]
	return v, ok
}

// Store returns the kernel store the interpreter is bound to.
func (in *Interp) Store() *monet.Store { return in.store }

// env is a lexical scope chain. The root scope delegates to the
// interpreter's locked globals map so PARALLEL branches can share it,
// and carries the run's context: one Interp serves many runs at once,
// so the trace a run records into belongs to the run, not the Interp.
type env struct {
	in     *Interp
	parent *env
	vars   map[string]Value
	mu     *sync.Mutex     // non-nil when this scope is shared by PARALLEL branches
	ctx    context.Context // set on root scopes only
}

// context returns the context of the run the scope belongs to.
func (e *env) context() context.Context {
	for e.parent != nil {
		e = e.parent
	}
	return e.ctx
}

// unlockPath releases scope locks acquired during an env walk, in
// reverse acquisition order. Walks always acquire child-to-parent, a
// consistent order across goroutines, which keeps them deadlock-free.
func unlockPath(held []*sync.Mutex) {
	for i := len(held) - 1; i >= 0; i-- {
		held[i].Unlock()
	}
}

func (e *env) lookup(name string) (Value, bool) {
	var held []*sync.Mutex
	defer func() { unlockPath(held) }()
	for s := e; s != nil; s = s.parent {
		if s.mu != nil {
			s.mu.Lock()
			held = append(held, s.mu)
		}
		v, ok := s.vars[name]
		if ok {
			return v, true
		}
	}
	return e.in.Global(name)
}

// outermostParMu returns the lock of the outermost enclosing PARALLEL
// scope, or nil outside any PARALLEL block. Branches of the same block
// — and of any nested blocks — share it, so it serializes in-place
// mutation of values reachable from more than one branch.
func (e *env) outermostParMu() *sync.Mutex {
	var mu *sync.Mutex
	for s := e; s != nil; s = s.parent {
		if s.mu != nil {
			mu = s.mu
		}
	}
	return mu
}

func (e *env) define(name string, v Value) {
	if e.mu != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	e.vars[name] = v
}

// set assigns an existing variable, searching outward; if undefined
// anywhere it becomes a global (MIL sessions assign freely). Locks of
// enclosing PARALLEL scopes stay held while outer scopes are touched,
// so branch assignments to pre-block variables cannot race on the
// scope maps.
func (e *env) set(name string, v Value) {
	var held []*sync.Mutex
	defer func() { unlockPath(held) }()
	for s := e; s != nil; s = s.parent {
		if s.mu != nil {
			s.mu.Lock()
			held = append(held, s.mu)
		}
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return
		}
	}
	e.in.SetGlobal(name, v)
}

// Exec parses and runs src at global scope, returning the value of a
// top-level RETURN if one executes, else the value of the last
// expression statement.
func (in *Interp) Exec(src string) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return Value{}, err
	}
	return in.Run(prog)
}

// ExecCtx is Exec under a trace context: when ctx carries a span the
// interpretation is recorded as a physical-level "mil.exec" child
// covering parse and run, annotated with the statement count and any
// failure. MIL programs issued over the protocol get their own trace
// root in the server, so MIL work shows up in TRACEDUMP alongside
// COQL queries.
func (in *Interp) ExecCtx(ctx context.Context, src string) (Value, error) {
	sp := obs.SpanFromContext(ctx).StartChild("mil.exec")
	sp.SetAttr("level", "physical")
	prog, err := Parse(src)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.Finish()
		return Value{}, err
	}
	sp.SetAttr("statements", fmt.Sprintf("%d", len(prog.Stmts)))
	v, err := in.run(obs.ContextWithSpan(ctx, sp), prog)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.Finish()
	return v, err
}

// Run executes a parsed program.
func (in *Interp) Run(prog *Program) (Value, error) {
	return in.run(context.Background(), prog)
}

// run executes a parsed program under ctx, which the kernel operators
// it calls record their spans into.
func (in *Interp) run(ctx context.Context, prog *Program) (Value, error) {
	defer func(start time.Time) { hRunLat.Observe(time.Since(start)) }(time.Now())
	cStatements.Add(int64(len(prog.Stmts)))
	in.steps.Store(0)
	root := &env{in: in, vars: map[string]Value{}, ctx: ctx}
	var last Value
	for _, s := range prog.Stmts {
		v, err := in.exec(root, s)
		var r errReturn
		if errors.As(err, &r) {
			return r.val, nil
		}
		if err != nil {
			return Value{}, err
		}
		last = v
	}
	return last, nil
}

func (in *Interp) exec(e *env, s Stmt) (Value, error) {
	if in.MaxSteps > 0 && in.steps.Add(1) > in.MaxSteps {
		l, c := s.Pos()
		return Value{}, fmt.Errorf("%w at %d:%d (limit %d)", ErrBudget, l, c, in.MaxSteps)
	}
	switch st := s.(type) {
	case *VarDecl:
		v, err := in.eval(e, st.Init)
		if err != nil {
			return Value{}, err
		}
		e.define(st.Name, v)
		return Value{}, nil
	case *Assign:
		v, err := in.eval(e, st.Expr)
		if err != nil {
			return Value{}, err
		}
		e.set(st.Name, v)
		return Value{}, nil
	case *ExprStmt:
		return in.eval(e, st.Expr)
	case *Return:
		v, err := in.eval(e, st.Expr)
		if err != nil {
			return Value{}, err
		}
		return Value{}, errReturn{val: v}
	case *If:
		c, err := in.eval(e, st.Cond)
		if err != nil {
			return Value{}, err
		}
		if truthy(c) {
			return in.execBlock(e, st.Then)
		}
		if st.Else != nil {
			return in.execBlock(e, st.Else)
		}
		return Value{}, nil
	case *While:
		for {
			c, err := in.eval(e, st.Cond)
			if err != nil {
				return Value{}, err
			}
			if !truthy(c) {
				return Value{}, nil
			}
			if _, err := in.execBlock(e, st.Body); err != nil {
				return Value{}, err
			}
		}
	case *Block:
		return in.execBlock(e, st)
	case *ParallelBlock:
		return in.execParallel(e, st)
	case *ProcDecl:
		in.mu.Lock()
		in.procs[strings.ToLower(st.Name)] = st
		in.mu.Unlock()
		return Value{}, nil
	default:
		return Value{}, fmt.Errorf("mil: unknown statement %T", s)
	}
}

func (in *Interp) execBlock(e *env, b *Block) (Value, error) {
	child := &env{in: in, parent: e, vars: map[string]Value{}}
	var last Value
	for _, s := range b.Stmts {
		v, err := in.exec(child, s)
		if err != nil {
			return Value{}, err
		}
		last = v
	}
	return last, nil
}

// execParallel runs the block's statements concurrently with at most
// threadcnt workers, scheduled as tasks on the shared kernel pool
// (monet.DefaultPool). Each statement runs in its own child scope over
// a shared, locked parent scope so branches can publish results to
// variables declared before the block (the Fig. 4 pattern: six
// hmmOneCall branches inserting into parEval). The MaxSteps budget is
// an atomic on the interpreter, so it keeps counting across workers.
//
// Width is bounded by submitting min(threadcnt, branches) drainer
// tasks over a pre-filled work channel rather than by blocking on a
// semaphore inside pool tasks: a pool task never blocks on another
// queued task, so nested fan-out (a branch running a morsel-parallel
// kernel operator on the same pool) cannot deadlock.
func (in *Interp) execParallel(e *env, b *ParallelBlock) (Value, error) {
	defer func(start time.Time) { hParallelBlockTime.Observe(time.Since(start)) }(time.Now())
	cParallelBlocks.Inc()
	cParallelBranches.Add(int64(len(b.Stmts)))
	in.mu.Lock()
	threads := in.threadCnt
	in.mu.Unlock()

	shared := &env{in: in, parent: e, vars: map[string]Value{}, mu: &sync.Mutex{}}
	run := func(s Stmt) error {
		child := &env{in: in, parent: shared, vars: map[string]Value{}}
		_, err := in.exec(child, s)
		return err
	}
	errs := make([]error, len(b.Stmts))
	if threads <= 1 || len(b.Stmts) <= 1 {
		for i, s := range b.Stmts {
			errs[i] = run(s)
		}
		return Value{}, errors.Join(errs...)
	}
	if threads > len(b.Stmts) {
		threads = len(b.Stmts)
	}
	next := make(chan int, len(b.Stmts))
	for i := range b.Stmts {
		next <- i
	}
	close(next)
	batch := monet.DefaultPool().Batch()
	for w := 0; w < threads; w++ {
		batch.Submit(func() {
			for i := range next {
				errs[i] = run(b.Stmts[i])
			}
		})
	}
	batch.Wait()
	return Value{}, errors.Join(errs...)
}

func (in *Interp) eval(e *env, x Expr) (Value, error) {
	switch ex := x.(type) {
	case *Lit:
		return AtomValue(ex.Val), nil
	case *Ident:
		v, ok := e.lookup(ex.Name)
		if !ok {
			l, c := ex.Pos()
			return Value{}, fmt.Errorf("%w: %q at %d:%d", ErrUndefined, ex.Name, l, c)
		}
		return v, nil
	case *Unary:
		v, err := in.eval(e, ex.X)
		if err != nil {
			return Value{}, err
		}
		switch v.Atom.Typ {
		case monet.IntT:
			return AtomValue(monet.NewInt(-v.Atom.Int())), nil
		case monet.FloatT:
			return AtomValue(monet.NewFloat(-v.Atom.Float())), nil
		}
		return Value{}, fmt.Errorf("mil: cannot negate %v", v)
	case *Binary:
		return in.evalBinary(e, ex)
	case *Call:
		return in.evalCall(e, ex)
	case *MethodCall:
		return in.evalMethod(e, ex)
	default:
		return Value{}, fmt.Errorf("mil: unknown expression %T", x)
	}
}

func (in *Interp) evalBinary(e *env, ex *Binary) (Value, error) {
	l, err := in.eval(e, ex.L)
	if err != nil {
		return Value{}, err
	}
	r, err := in.eval(e, ex.R)
	if err != nil {
		return Value{}, err
	}
	if l.IsBAT() || r.IsBAT() {
		return Value{}, fmt.Errorf("mil: operator %q over BAT operands", ex.Op)
	}
	a, b := l.Atom, r.Atom
	switch ex.Op {
	case "=", "!=", "<", ">", "<=", ">=":
		var cmp int
		if a.Typ == b.Typ {
			cmp = monet.Compare(a, b)
		} else if isNumeric(a.Typ) && isNumeric(b.Typ) {
			switch {
			case a.Float() < b.Float():
				cmp = -1
			case a.Float() > b.Float():
				cmp = 1
			}
		} else {
			cmp = monet.Compare(a, b)
		}
		var res bool
		switch ex.Op {
		case "=":
			res = cmp == 0
		case "!=":
			res = cmp != 0
		case "<":
			res = cmp < 0
		case ">":
			res = cmp > 0
		case "<=":
			res = cmp <= 0
		case ">=":
			res = cmp >= 0
		}
		return AtomValue(monet.NewBool(res)), nil
	case "+":
		if a.Typ == monet.StrT && b.Typ == monet.StrT {
			return AtomValue(monet.NewStr(a.Str() + b.Str())), nil
		}
		fallthrough
	case "-", "*", "/", "%":
		if !isNumeric(a.Typ) || !isNumeric(b.Typ) {
			return Value{}, fmt.Errorf("mil: operator %q over %v and %v", ex.Op, a.Typ, b.Typ)
		}
		if a.Typ == monet.IntT && b.Typ == monet.IntT {
			ai, bi := a.Int(), b.Int()
			switch ex.Op {
			case "+":
				return AtomValue(monet.NewInt(ai + bi)), nil
			case "-":
				return AtomValue(monet.NewInt(ai - bi)), nil
			case "*":
				return AtomValue(monet.NewInt(ai * bi)), nil
			case "/":
				if bi == 0 {
					return Value{}, errors.New("mil: integer division by zero")
				}
				return AtomValue(monet.NewInt(ai / bi)), nil
			case "%":
				if bi == 0 {
					return Value{}, errors.New("mil: integer modulo by zero")
				}
				return AtomValue(monet.NewInt(ai % bi)), nil
			}
		}
		af, bf := a.Float(), b.Float()
		switch ex.Op {
		case "+":
			return AtomValue(monet.NewFloat(af + bf)), nil
		case "-":
			return AtomValue(monet.NewFloat(af - bf)), nil
		case "*":
			return AtomValue(monet.NewFloat(af * bf)), nil
		case "/":
			return AtomValue(monet.NewFloat(af / bf)), nil
		case "%":
			return Value{}, errors.New("mil: modulo over floats")
		}
	}
	return Value{}, fmt.Errorf("mil: unknown operator %q", ex.Op)
}

func isNumeric(t monet.Type) bool {
	return t == monet.IntT || t == monet.FloatT || t == monet.OIDT || t == monet.BoolT
}

func truthy(v Value) bool {
	if v.IsBAT() {
		return v.BAT.Len() > 0
	}
	switch v.Atom.Typ {
	case monet.BoolT, monet.IntT, monet.OIDT:
		return v.Atom.Int() != 0
	case monet.FloatT:
		return v.Atom.Float() != 0
	case monet.StrT:
		return v.Atom.Str() != ""
	}
	return false
}

func (in *Interp) evalCall(e *env, ex *Call) (Value, error) {
	args := make([]Value, len(ex.Args))
	for i, a := range ex.Args {
		v, err := in.eval(e, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	name := strings.ToLower(ex.Name)
	if proc, ok := in.proc(name); ok {
		return in.callProc(e.context(), proc, args)
	}
	if fn, ok := in.builtins[name]; ok {
		v, err := fn(in, args)
		if err != nil {
			l, c := ex.Pos()
			return Value{}, fmt.Errorf("mil: %d:%d: %s: %w", l, c, ex.Name, err)
		}
		return v, nil
	}
	l, c := ex.Pos()
	return Value{}, fmt.Errorf("%w: function %q at %d:%d", ErrUndefined, ex.Name, l, c)
}

func (in *Interp) callProc(ctx context.Context, proc *ProcDecl, args []Value) (Value, error) {
	if len(args) != len(proc.Params) {
		return Value{}, fmt.Errorf("mil: proc %s expects %d args, got %d", proc.Name, len(proc.Params), len(args))
	}
	scope := &env{in: in, vars: map[string]Value{}, ctx: ctx}
	for i, p := range proc.Params {
		a := args[i]
		if p.IsBAT && !a.IsBAT() {
			return Value{}, fmt.Errorf("mil: proc %s: parameter %s expects a BAT", proc.Name, p.Name)
		}
		if !p.IsBAT && a.IsBAT() {
			return Value{}, fmt.Errorf("mil: proc %s: parameter %s expects an atom", proc.Name, p.Name)
		}
		scope.define(p.Name, a)
	}
	var last Value
	for _, s := range proc.Body.Stmts {
		v, err := in.exec(scope, s)
		var r errReturn
		if errors.As(err, &r) {
			return r.val, nil
		}
		if err != nil {
			return Value{}, err
		}
		last = v
	}
	return last, nil
}

// GlobalNames returns the sorted names of bound global variables,
// including the pre-bound atomic type names.
func (in *Interp) GlobalNames() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.globals))
	for n := range in.globals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BuiltinNames returns the sorted names of registered builtin
// functions, covering the stdlib and any extension modules.
func (in *Interp) BuiltinNames() []string {
	names := make([]string, 0, len(in.builtins))
	for n := range in.builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Procs returns the sorted names of declared procedures.
func (in *Interp) Procs() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.procs))
	for n := range in.procs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
