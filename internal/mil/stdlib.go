package mil

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"cobra/internal/monet"
)

// installStdlib registers the kernel's builtin functions.
func (in *Interp) installStdlib() {
	in.Register("new", builtinNew)
	in.Register("threadcnt", builtinThreadcnt)
	in.Register("poolsize", builtinPoolsize)
	in.Register("print", builtinPrint)
	in.Register("bat", builtinBAT)
	in.Register("register", builtinRegister)
	in.Register("zonemap", builtinZoneMap)
	in.Register("indexinfo", builtinIndexInfo)
	in.Register("fusedaggr", builtinFusedAggr)
	in.Register("fusedruns", builtinFusedRuns)
	in.Register("abs", func(_ *Interp, args []Value) (Value, error) {
		if err := wantAtoms("abs", args, 1); err != nil {
			return Value{}, err
		}
		a := args[0].Atom
		if a.Typ == monet.IntT {
			v := a.Int()
			if v < 0 {
				v = -v
			}
			return AtomValue(monet.NewInt(v)), nil
		}
		return AtomValue(monet.NewFloat(math.Abs(a.Float()))), nil
	})
	in.Register("sqrt", func(_ *Interp, args []Value) (Value, error) {
		if err := wantAtoms("sqrt", args, 1); err != nil {
			return Value{}, err
		}
		return AtomValue(monet.NewFloat(math.Sqrt(args[0].Atom.Float()))), nil
	})
	in.Register("log", func(_ *Interp, args []Value) (Value, error) {
		if err := wantAtoms("log", args, 1); err != nil {
			return Value{}, err
		}
		return AtomValue(monet.NewFloat(math.Log(args[0].Atom.Float()))), nil
	})
	in.Register("int", func(_ *Interp, args []Value) (Value, error) {
		if err := wantAtoms("int", args, 1); err != nil {
			return Value{}, err
		}
		return AtomValue(monet.NewInt(int64(args[0].Atom.Float()))), nil
	})
	in.Register("dbl", func(_ *Interp, args []Value) (Value, error) {
		if err := wantAtoms("dbl", args, 1); err != nil {
			return Value{}, err
		}
		return AtomValue(monet.NewFloat(args[0].Atom.Float())), nil
	})
	in.Register("str", func(_ *Interp, args []Value) (Value, error) {
		if len(args) != 1 {
			return Value{}, errors.New("str expects 1 argument")
		}
		if args[0].IsBAT() {
			return AtomValue(monet.NewStr(args[0].BAT.String())), nil
		}
		a := args[0].Atom
		if a.Typ == monet.StrT {
			return args[0], nil
		}
		return AtomValue(monet.NewStr(a.String())), nil
	})
	in.Register("oid", func(_ *Interp, args []Value) (Value, error) {
		if err := wantAtoms("oid", args, 1); err != nil {
			return Value{}, err
		}
		return AtomValue(monet.NewOID(monet.OID(args[0].Atom.Int()))), nil
	})
	in.Register("isnil", func(_ *Interp, args []Value) (Value, error) {
		if len(args) != 1 {
			return Value{}, errors.New("isnil expects 1 argument")
		}
		return AtomValue(monet.NewBool(!args[0].IsBAT() && args[0].Atom.IsNil())), nil
	})
	// Columnar calculus (batcalc): bulk arithmetic over aligned BATs.
	for _, op := range []string{"+", "-", "*", "/", "min", "max"} {
		op := op
		name := map[string]string{"+": "calcadd", "-": "calcsub", "*": "calcmul",
			"/": "calcdiv", "min": "calcmin", "max": "calcmax"}[op]
		in.Register(name, func(_ *Interp, args []Value) (Value, error) {
			if len(args) != 2 || !args[0].IsBAT() || !args[1].IsBAT() {
				return Value{}, fmt.Errorf("%s expects two BATs", name)
			}
			out, err := monet.CalcBinary(args[0].BAT, args[1].BAT, op)
			if err != nil {
				return Value{}, err
			}
			return BATValue(out), nil
		})
	}
	in.Register("scale", func(_ *Interp, args []Value) (Value, error) {
		if len(args) != 3 || !args[0].IsBAT() || args[1].IsBAT() || args[2].IsBAT() {
			return Value{}, errors.New("scale expects (bat, factor, offset)")
		}
		out, err := monet.CalcScale(args[0].BAT, args[1].Atom.Float(), args[2].Atom.Float())
		if err != nil {
			return Value{}, err
		}
		return BATValue(out), nil
	})
	in.Register("clamp", func(_ *Interp, args []Value) (Value, error) {
		if len(args) != 3 || !args[0].IsBAT() || args[1].IsBAT() || args[2].IsBAT() {
			return Value{}, errors.New("clamp expects (bat, lo, hi)")
		}
		out, err := monet.CalcClamp(args[0].BAT, args[1].Atom.Float(), args[2].Atom.Float())
		if err != nil {
			return Value{}, err
		}
		return BATValue(out), nil
	})
	in.Register("threshold", func(_ *Interp, args []Value) (Value, error) {
		if len(args) != 2 || !args[0].IsBAT() || args[1].IsBAT() {
			return Value{}, errors.New("threshold expects (bat, value)")
		}
		out, err := monet.CalcThreshold(args[0].BAT, args[1].Atom.Float())
		if err != nil {
			return Value{}, err
		}
		return BATValue(out), nil
	})
	in.Register("mavg", func(_ *Interp, args []Value) (Value, error) {
		if len(args) != 2 || !args[0].IsBAT() || args[1].IsBAT() {
			return Value{}, errors.New("mavg expects (bat, window)")
		}
		out, err := monet.CalcMovingAvg(args[0].BAT, int(args[1].Atom.Int()))
		if err != nil {
			return Value{}, err
		}
		return BATValue(out), nil
	})
}

// builtinNew implements `new(headType, tailType)`: the BAT constructor.
// Type arguments arrive as undefined identifiers, so the parser turns
// them into Ident expressions; the evaluator resolves them through this
// special path by accepting string atoms too. We therefore pre-bind
// type names as globals at interpreter construction... Instead, the
// simpler contract: new takes the type names as identifiers that the
// evaluator could not resolve — so callers write new("void","int") or
// the interpreter maps bare type names. To keep the paper's syntax
// new(void,int) working, type names are bound as string globals below.
func builtinNew(in *Interp, args []Value) (Value, error) {
	if len(args) != 2 {
		return Value{}, errors.New("new expects 2 type arguments")
	}
	ht, err := typeArg(args[0])
	if err != nil {
		return Value{}, err
	}
	tt, err := typeArg(args[1])
	if err != nil {
		return Value{}, err
	}
	return BATValue(monet.NewBAT(ht, tt)), nil
}

func typeArg(v Value) (monet.Type, error) {
	if v.IsBAT() {
		return 0, errors.New("type argument must be a type name")
	}
	if v.Atom.Typ != monet.StrT {
		return 0, fmt.Errorf("type argument must be a type name, got %v", v.Atom)
	}
	return parseTypeName(v.Atom.Str())
}

// builtinThreadcnt sets the worker count for PARALLEL blocks and
// returns the previous value, like Monet's threadcnt. It also resizes
// the shared kernel pool, so bulk operators (select/join/aggregate)
// inherit the same width; the pool clamps the width to a sane maximum.
func builtinThreadcnt(in *Interp, args []Value) (Value, error) {
	if err := wantAtoms("threadcnt", args, 1); err != nil {
		return Value{}, err
	}
	n := int(args[0].Atom.Int())
	if n < 1 {
		return Value{}, fmt.Errorf("threadcnt: invalid count %d", n)
	}
	in.mu.Lock()
	prev := in.threadCnt
	in.threadCnt = n
	in.mu.Unlock()
	monet.SetDefaultPoolWorkers(n)
	return AtomValue(monet.NewInt(int64(prev))), nil
}

// builtinPoolsize reports the width of the shared kernel worker pool:
// poolsize() returns how many workers morsel-parallel operators and
// PARALLEL blocks schedule onto.
func builtinPoolsize(in *Interp, args []Value) (Value, error) {
	if err := wantAtoms("poolsize", args, 0); err != nil {
		return Value{}, err
	}
	return AtomValue(monet.NewInt(int64(monet.DefaultPool().Workers()))), nil
}

// builtinPrint renders its arguments to the interpreter's output list.
func builtinPrint(in *Interp, args []Value) (Value, error) {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	in.mu.Lock()
	in.output = append(in.output, strings.Join(parts, " "))
	in.mu.Unlock()
	return Value{}, nil
}

// builtinBAT fetches a named BAT from the store: bat("name"). The
// value is the store's own BAT, so it is read-only: insert refuses it.
func builtinBAT(in *Interp, args []Value) (Value, error) {
	if err := wantAtoms("bat", args, 1); err != nil {
		return Value{}, err
	}
	if in.store == nil {
		return Value{}, errors.New("bat: no store attached")
	}
	name := args[0].Atom.Str()
	b, err := in.store.Get(name)
	if err != nil {
		return Value{}, err
	}
	return Value{BAT: b, stored: name}, nil
}

// builtinZoneMap force-builds the zone map (min/max per 1 024-row
// zone) of a stored column: zonemap("name") returns the morsel count.
func builtinZoneMap(in *Interp, args []Value) (Value, error) {
	if err := wantAtoms("zonemap", args, 1); err != nil {
		return Value{}, err
	}
	if in.store == nil {
		return Value{}, errors.New("zonemap: no store attached")
	}
	n, err := in.store.BuildZoneMap(args[0].Atom.Str())
	if err != nil {
		return Value{}, err
	}
	return AtomValue(monet.NewInt(int64(n))), nil
}

// builtinIndexInfo reports the adaptive index state of a stored BAT
// as a [str,str] BAT of property/value pairs: indexinfo("name").
func builtinIndexInfo(in *Interp, args []Value) (Value, error) {
	if err := wantAtoms("indexinfo", args, 1); err != nil {
		return Value{}, err
	}
	if in.store == nil {
		return Value{}, errors.New("indexinfo: no store attached")
	}
	b, err := in.store.IndexInfo(args[0].Atom.Str())
	if err != nil {
		return Value{}, err
	}
	return BATValue(b), nil
}

// builtinFusedAggr executes a fused select→aggregate pipeline over
// stored BATs: fusedaggr("pred", lo, hi, "agg", "op") aggregates the
// rows of BAT "agg" whose aligned "pred" tail lies in [lo, hi],
// without materializing the selection. op is one of count, sum, avg,
// min, max. The fused gate silently falls back to the
// operator-at-a-time plan when fusion cannot reproduce it exactly.
func builtinFusedAggr(in *Interp, args []Value) (Value, error) {
	if err := wantAtoms("fusedaggr", args, 5); err != nil {
		return Value{}, err
	}
	if in.store == nil {
		return Value{}, errors.New("fusedaggr: no store attached")
	}
	return in.fusedAggregate(context.Background(), args[0].Atom.Str(), args[1].Atom, args[2].Atom, args[3].Atom.Str(), args[4].Atom.Str())
}

// builtinFusedRuns range-selects a stored BAT through the fused
// pipeline and returns the qualifying rows as maximal runs:
// fusedruns("name", lo, hi) yields a [oid, int] BAT mapping each run's
// first position to its length.
func builtinFusedRuns(in *Interp, args []Value) (Value, error) {
	if err := wantAtoms("fusedruns", args, 3); err != nil {
		return Value{}, err
	}
	if in.store == nil {
		return Value{}, errors.New("fusedruns: no store attached")
	}
	runs, _, err := in.store.SelectRuns(args[0].Atom.Str(), args[1].Atom, args[2].Atom)
	if err != nil {
		return Value{}, err
	}
	out := monet.NewBATCap(monet.OIDT, monet.IntT, len(runs))
	for _, r := range runs {
		out.MustInsert(monet.NewOID(monet.OID(r.Start)), monet.NewInt(int64(r.Len)))
	}
	return BATValue(out), nil
}

// builtinRegister persists a BAT into the store: register("name", b).
// The store gets a copy, so later inserts into b never reach the
// stored BAT behind the store's epoch, its indexes and its journal.
func builtinRegister(in *Interp, args []Value) (Value, error) {
	if len(args) != 2 || args[0].IsBAT() || !args[1].IsBAT() {
		return Value{}, errors.New(`register expects ("name", bat)`)
	}
	if in.store == nil {
		return Value{}, errors.New("register: no store attached")
	}
	if err := in.store.Put(args[0].Atom.Str(), args[1].BAT.Clone()); err != nil {
		return Value{}, err
	}
	return args[1], nil
}

func wantAtoms(name string, args []Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("%s expects %d arguments, got %d", name, n, len(args))
	}
	for _, a := range args {
		if a.IsBAT() {
			return fmt.Errorf("%s expects atomic arguments", name)
		}
	}
	return nil
}

// callNamedProc invokes a declared PROC by name with the given
// arguments; used by the higher-order BAT methods.
func (in *Interp) callNamedProc(ctx context.Context, name string, args []Value) (Value, error) {
	proc, ok := in.proc(strings.ToLower(name))
	if !ok {
		return Value{}, fmt.Errorf("mil: no PROC %q", name)
	}
	return in.callProc(ctx, proc, args)
}

// evalMethod dispatches method-call syntax. On BATs it maps to kernel
// operations; `.max`, `.min`, `.count`, `.sum`, `.avg` also work on
// BATs per MIL. The receiver may also be an undefined identifier used
// as a type name (not supported — caught by lookup).
func (in *Interp) evalMethod(e *env, ex *MethodCall) (Value, error) {
	if ch, ok := matchChain(ex); ok {
		return in.evalChain(e, ch)
	}
	recv, err := in.eval(e, ex.Recv)
	if err != nil {
		return Value{}, err
	}
	args := make([]Value, len(ex.Args))
	for i, a := range ex.Args {
		v, err := in.eval(e, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return in.applyMethod(e, ex, recv, args)
}

// applyMethod applies the method of ex to an evaluated receiver and
// arguments.
func (in *Interp) applyMethod(e *env, ex *MethodCall, recv Value, args []Value) (Value, error) {
	if !recv.IsBAT() {
		return Value{}, fmt.Errorf("mil: method %q on non-BAT value %v", ex.Name, recv)
	}
	b := recv.BAT
	name := strings.ToLower(ex.Name)
	wrap := func(v Value, err error) (Value, error) {
		if err != nil {
			l, c := ex.Pos()
			return Value{}, fmt.Errorf("mil: %d:%d: %s: %w", l, c, ex.Name, err)
		}
		return v, nil
	}
	switch name {
	case "insert":
		if len(args) != 2 || args[0].IsBAT() || args[1].IsBAT() {
			return wrap(Value{}, errors.New("insert expects (head, tail) atoms"))
		}
		if recv.stored != "" {
			return wrap(Value{}, fmt.Errorf("bat(%q) is read-only: insert into a copy and register it", recv.stored))
		}
		h := args[0].Atom
		if b.HeadType() == monet.Void {
			h = monet.VoidValue()
		}
		// Inside a PARALLEL block the receiver may be shared across
		// branches (the Fig. 4 parEval pattern); in-place mutation is
		// serialized on the block's lock so the columns cannot race.
		if mu := e.outermostParMu(); mu != nil {
			mu.Lock()
			defer mu.Unlock()
		}
		return wrap(BATValue(b), b.Insert(h, args[1].Atom))
	case "append":
		if len(args) != 1 || !args[0].IsBAT() {
			return wrap(Value{}, errors.New("append expects a BAT"))
		}
		u, err := b.KUnion(args[0].BAT)
		return wrap(BATValue(u), err)
	case "reverse":
		return Value{BAT: b.Reverse(), stored: recv.stored}, nil
	case "mirror":
		return Value{BAT: b.Mirror(), stored: recv.stored}, nil
	case "mark":
		base := monet.OID(0)
		if len(args) == 1 && !args[0].IsBAT() {
			base = monet.OID(args[0].Atom.Int())
		}
		return BATValue(b.Mark(base)), nil
	case "select", "uselect":
		if len(args) != 1 && len(args) != 2 {
			return wrap(Value{}, fmt.Errorf("%s expects 1 or 2 bounds", name))
		}
		lo, hi := args[0].Atom, args[len(args)-1].Atom
		unary := name == "uselect"
		if recv.stored != "" {
			if sel, _, ok := in.store.SelectRange(e.context(), recv.stored, b, lo, hi, unary); ok {
				return BATValue(sel), nil
			}
		}
		if unary {
			return BATValue(b.Uselect(lo, hi)), nil
		}
		return BATValue(b.Select(lo, hi)), nil
	case "join":
		if len(args) != 1 || !args[0].IsBAT() {
			return wrap(Value{}, errors.New("join expects a BAT"))
		}
		j, err := b.Join(args[0].BAT)
		return wrap(BATValue(j), err)
	case "semijoin":
		if len(args) != 1 || !args[0].IsBAT() {
			return wrap(Value{}, errors.New("semijoin expects a BAT"))
		}
		j, err := b.Semijoin(args[0].BAT)
		return wrap(BATValue(j), err)
	case "kdiff":
		if len(args) != 1 || !args[0].IsBAT() {
			return wrap(Value{}, errors.New("kdiff expects a BAT"))
		}
		j, err := b.KDiff(args[0].BAT)
		return wrap(BATValue(j), err)
	case "kunion":
		if len(args) != 1 || !args[0].IsBAT() {
			return wrap(Value{}, errors.New("kunion expects a BAT"))
		}
		j, err := b.KUnion(args[0].BAT)
		return wrap(BATValue(j), err)
	case "find":
		if len(args) != 1 || args[0].IsBAT() {
			return wrap(Value{}, errors.New("find expects an atom"))
		}
		v, ok := b.Find(args[0].Atom)
		if !ok {
			return AtomValue(monet.VoidValue()), nil
		}
		return AtomValue(v), nil
	case "exists":
		if len(args) != 1 || args[0].IsBAT() {
			return wrap(Value{}, errors.New("exists expects an atom"))
		}
		return AtomValue(monet.NewBool(b.Exists(args[0].Atom))), nil
	case "count":
		return AtomValue(monet.NewInt(b.Count())), nil
	case "sum":
		s, err := b.Sum()
		return wrap(AtomValue(monet.NewFloat(s)), err)
	case "avg":
		s, err := b.Avg()
		return wrap(AtomValue(monet.NewFloat(s)), err)
	case "max":
		v, ok := b.Max()
		if !ok {
			return AtomValue(monet.VoidValue()), nil
		}
		return AtomValue(v), nil
	case "min":
		v, ok := b.Min()
		if !ok {
			return AtomValue(monet.VoidValue()), nil
		}
		return AtomValue(v), nil
	case "argmax":
		v, ok := b.ArgMax()
		if !ok {
			return AtomValue(monet.VoidValue()), nil
		}
		return AtomValue(v), nil
	case "argmin":
		v, ok := b.ArgMin()
		if !ok {
			return AtomValue(monet.VoidValue()), nil
		}
		return AtomValue(v), nil
	case "sort":
		return BATValue(b.SortTail()), nil
	case "sorthead":
		return BATValue(b.SortHead()), nil
	case "slice":
		if len(args) != 2 || args[0].IsBAT() || args[1].IsBAT() {
			return wrap(Value{}, errors.New("slice expects (lo, hi) atoms"))
		}
		lo, hi := int(args[0].Atom.Int()), int(args[1].Atom.Int())
		if lo < 0 || hi > b.Len() || lo > hi {
			return wrap(Value{}, fmt.Errorf("slice bounds [%d,%d) out of range 0..%d", lo, hi, b.Len()))
		}
		return BATValue(b.Slice(lo, hi)), nil
	case "copy":
		return BATValue(b.Clone()), nil
	case "histogram":
		return BATValue(b.Histogram()), nil
	case "map":
		// b.map("proc"): apply PROC(head, tail) per BUN, keeping heads
		// and replacing tails with the PROC's result.
		if len(args) != 1 || args[0].IsBAT() || args[0].Atom.Typ != monet.StrT {
			return wrap(Value{}, errors.New(`map expects a PROC name string`))
		}
		var out *monet.BAT
		for i := 0; i < b.Len(); i++ {
			v, err := in.callNamedProc(e.context(), args[0].Atom.Str(),
				[]Value{AtomValue(b.Head(i)), AtomValue(b.Tail(i))})
			if err != nil {
				return wrap(Value{}, err)
			}
			if v.IsBAT() {
				return wrap(Value{}, errors.New("map PROC must return an atom"))
			}
			if out == nil {
				out = monet.NewBAT(b.HeadType(), v.Atom.Typ)
			}
			if err := out.Insert(b.Head(i), v.Atom); err != nil {
				return wrap(Value{}, err)
			}
		}
		if out == nil {
			out = monet.NewBAT(b.HeadType(), monet.Void)
		}
		return BATValue(out), nil
	case "filterproc":
		// b.filterproc("proc"): keep BUNs for which PROC(head, tail)
		// returns a truthy atom.
		if len(args) != 1 || args[0].IsBAT() || args[0].Atom.Typ != monet.StrT {
			return wrap(Value{}, errors.New(`filterproc expects a PROC name string`))
		}
		out := monet.NewBAT(b.HeadType(), b.TailType())
		for i := 0; i < b.Len(); i++ {
			v, err := in.callNamedProc(e.context(), args[0].Atom.Str(),
				[]Value{AtomValue(b.Head(i)), AtomValue(b.Tail(i))})
			if err != nil {
				return wrap(Value{}, err)
			}
			if truthy(v) {
				h := b.Head(i)
				if b.HeadType() == monet.Void {
					h = monet.VoidValue()
				}
				if err := out.Insert(h, b.Tail(i)); err != nil {
					return wrap(Value{}, err)
				}
			}
		}
		return BATValue(out), nil
	}
	l, c := ex.Pos()
	return Value{}, fmt.Errorf("%w: method %q at %d:%d", ErrUndefined, ex.Name, l, c)
}

// Output returns and clears the lines produced by print().
func (in *Interp) Output() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := in.output
	in.output = nil
	return out
}
