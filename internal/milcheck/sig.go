package milcheck

import (
	"fmt"

	"cobra/internal/monet"
)

// Sig statically describes a callable: given the argument types it
// returns the result type, or a non-empty problem string that becomes
// an error diagnostic at the call site.
type Sig func(args []VType) (VType, string)

// fixedSig builds a Sig for a fixed-arity callable from per-argument
// validators.
func fixedSig(name string, result VType, params ...func(VType) string) Sig {
	return func(args []VType) (VType, string) {
		if len(args) != len(params) {
			return result, fmt.Sprintf("%s expects %d argument(s), got %d", name, len(params), len(args))
		}
		for i, check := range params {
			if msg := check(args[i]); msg != "" {
				return result, fmt.Sprintf("%s argument %d: %s", name, i+1, msg)
			}
		}
		return result, ""
	}
}

func wantNumeric(v VType) string {
	if !v.IsNumeric() {
		return fmt.Sprintf("want a numeric atom, got %s", v)
	}
	return ""
}

func wantAtom(v VType) string {
	if !v.IsAtom() {
		return fmt.Sprintf("want an atom, got %s", v)
	}
	return ""
}

func wantStr(v VType) string {
	if v.Kind == AnyK || (v.Kind == AtomK && (v.Atom == monet.StrT || v.Atom == AnyAtom)) {
		return ""
	}
	return fmt.Sprintf("want a str atom, got %s", v)
}

func wantBAT(v VType) string {
	if !v.IsBAT() {
		return fmt.Sprintf("want a BAT, got %s", v)
	}
	return ""
}

func wantNumericBAT(v VType) string {
	if v.Kind == AnyK {
		return ""
	}
	if v.Kind != BATK {
		return fmt.Sprintf("want a BAT, got %s", v)
	}
	if !numericAtom(v.Tail) {
		return fmt.Sprintf("want a numeric tail, got %s", v)
	}
	return ""
}

func wantAny(VType) string { return "" }

// stdlibSigs returns the signatures of the interpreter stdlib
// builtins, excluding new/bat/register/print which need access to the
// call expression and are special-cased by the checker.
func stdlibSigs() map[string]Sig {
	sigs := map[string]Sig{
		"threadcnt": fixedSig("threadcnt", AtomOf(monet.IntT), wantNumeric),
		"poolsize":  fixedSig("poolsize", AtomOf(monet.IntT)),
		"sqrt":      fixedSig("sqrt", AtomOf(monet.FloatT), wantNumeric),
		"log":       fixedSig("log", AtomOf(monet.FloatT), wantNumeric),
		"int":       fixedSig("int", AtomOf(monet.IntT), wantNumeric),
		"dbl":       fixedSig("dbl", AtomOf(monet.FloatT), wantNumeric),
		"oid":       fixedSig("oid", AtomOf(monet.OIDT), wantNumeric),
		"str":       fixedSig("str", AtomOf(monet.StrT), wantAny),
		"isnil":     fixedSig("isnil", AtomOf(monet.BoolT), wantAny),
		"abs": func(args []VType) (VType, string) {
			if len(args) != 1 {
				return AnyAtomType(), "abs expects 1 argument"
			}
			if msg := wantNumeric(args[0]); msg != "" {
				return AnyAtomType(), "abs argument 1: " + msg
			}
			if args[0].Kind == AtomK && args[0].Atom == monet.IntT {
				return AtomOf(monet.IntT), ""
			}
			if args[0].Kind == AtomK && args[0].Atom != AnyAtom {
				return AtomOf(monet.FloatT), ""
			}
			return AnyAtomType(), ""
		},
		"zonemap":   fixedSig("zonemap", AtomOf(monet.IntT), wantStr),
		"indexinfo": fixedSig("indexinfo", BATOf(monet.StrT, monet.StrT), wantStr),
		"fusedaggr": fixedSig("fusedaggr", AnyAtomType(), wantStr, wantAtom, wantAtom, wantStr, wantStr),
		"fusedruns": fixedSig("fusedruns", BATOf(monet.OIDT, monet.IntT), wantStr, wantAtom, wantAtom),
		"scale":     fixedSig("scale", BATOf(monet.Void, monet.FloatT), wantNumericBAT, wantNumeric, wantNumeric),
		"clamp":     fixedSig("clamp", BATOf(monet.Void, monet.FloatT), wantNumericBAT, wantNumeric, wantNumeric),
		"threshold": fixedSig("threshold", BATOf(monet.Void, monet.BoolT), wantNumericBAT, wantNumeric),
		"mavg":      fixedSig("mavg", BATOf(monet.Void, monet.FloatT), wantNumericBAT, wantNumeric),
	}
	for _, name := range []string{"calcadd", "calcsub", "calcmul", "calcdiv", "calcmin", "calcmax"} {
		sigs[name] = fixedSig(name, BATOf(monet.Void, monet.FloatT), wantNumericBAT, wantNumericBAT)
	}
	return sigs
}

// ExtensionSigs returns the signatures of the extension-module
// operations the repo's MEL-style modules register (internal/ext): the
// Fig. 4 hmmOneCall/hmmClassify operators. DBN operators are
// registered under model-specific names and stay unknown unless the
// caller adds them via Options.Funcs.
func ExtensionSigs() map[string]Sig {
	return map[string]Sig{
		"hmmonecall":  fixedSig("hmmOneCall", AtomOf(monet.FloatT), wantStr, wantBAT),
		"hmmclassify": fixedSig("hmmClassify", AtomOf(monet.StrT), wantBAT),
	}
}

// methodSig checks one BAT method call, returning the result type, a
// problem string ("" when well-typed) and whether the method exists.
// recv is the receiver's BAT type (possibly AnyBAT when unknown).
func methodSig(name string, recv VType, args []VType) (res VType, problem string, known bool) {
	h, t := AnyAtom, AnyAtom
	if recv.Kind == BATK {
		h, t = recv.Head, recv.Tail
	}
	argc := func(n int) string {
		if len(args) != n {
			return fmt.Sprintf("%s expects %d argument(s), got %d", name, n, len(args))
		}
		return ""
	}
	// keyArg verifies that an atom argument can be compared against a
	// column of type col: the kernel compares values of unequal types
	// by type id, which silently selects nothing, so a static mismatch
	// is an error.
	keyArg := func(i int, col monet.Type, what string) string {
		a := args[i]
		if !a.IsAtom() {
			return fmt.Sprintf("%s argument %d: want an atom, got %s", name, i+1, a)
		}
		if a.Kind == AtomK && !atomsUnify(a.Atom, col) {
			return fmt.Sprintf("%s argument %d: %s key %s does not match column type %s",
				name, i+1, what, atomName(a.Atom), atomName(col))
		}
		return ""
	}
	sameBAT := func(i int) (VType, string) {
		a := args[i]
		if !a.IsBAT() {
			return recv, fmt.Sprintf("%s argument %d: want a BAT, got %s", name, i+1, a)
		}
		return recv, ""
	}
	switch name {
	case "insert":
		if msg := argc(2); msg != "" {
			return recv, msg, true
		}
		// The interpreter substitutes nil heads for void-head BATs, so
		// any head atom is fine there; otherwise types must match.
		if h != monet.Void {
			if msg := keyArg(0, h, "head"); msg != "" {
				return recv, msg, true
			}
		} else if !args[0].IsAtom() {
			return recv, fmt.Sprintf("insert argument 1: want an atom, got %s", args[0]), true
		}
		if t != monet.Void {
			if msg := keyArg(1, t, "tail"); msg != "" {
				return recv, msg, true
			}
		} else if !args[1].IsAtom() {
			return recv, fmt.Sprintf("insert argument 2: want an atom, got %s", args[1]), true
		}
		return recv, "", true
	case "append", "kunion":
		if msg := argc(1); msg != "" {
			return recv, msg, true
		}
		res, msg := sameBAT(0)
		if msg != "" {
			return res, msg, true
		}
		o := args[0]
		if o.Kind == BATK && recv.Kind == BATK &&
			(!atomsUnify(o.Head, h) || !atomsUnify(o.Tail, t)) {
			return recv, fmt.Sprintf("%s: cannot union %s with %s", name, o, recv), true
		}
		return recv, "", true
	case "kdiff", "semijoin":
		if msg := argc(1); msg != "" {
			return recv, msg, true
		}
		res, msg := sameBAT(0)
		if msg != "" {
			return res, msg, true
		}
		o := args[0]
		if o.Kind == BATK && recv.Kind == BATK && !atomsUnify(o.Head, h) {
			return recv, fmt.Sprintf("%s: head %s is incompatible with head %s", name, atomName(h), atomName(o.Head)), true
		}
		return recv, "", true
	case "join":
		if msg := argc(1); msg != "" {
			return AnyBAT(), msg, true
		}
		o := args[0]
		if !o.IsBAT() {
			return AnyBAT(), fmt.Sprintf("join argument 1: want a BAT, got %s", o), true
		}
		if o.Kind == BATK && recv.Kind == BATK {
			if !atomsUnify(t, o.Head) {
				return AnyBAT(), fmt.Sprintf("join: tail %s does not match head %s", atomName(t), atomName(o.Head)), true
			}
			return BATOf(materialAtom(h), materialAtom(o.Tail)), "", true
		}
		return AnyBAT(), "", true
	case "reverse":
		return BATOf(t, h), argc(0), true
	case "mirror":
		return BATOf(h, h), argc(0), true
	case "mark":
		if len(args) > 1 {
			return BATOf(materialAtom(h), monet.OIDT), fmt.Sprintf("mark expects 0 or 1 argument(s), got %d", len(args)), true
		}
		if len(args) == 1 {
			if msg := wantNumeric(args[0]); msg != "" {
				return BATOf(materialAtom(h), monet.OIDT), "mark argument 1: " + msg, true
			}
		}
		return BATOf(materialAtom(h), monet.OIDT), "", true
	case "select":
		if len(args) != 1 && len(args) != 2 {
			return recv, fmt.Sprintf("select expects 1 or 2 argument(s), got %d", len(args)), true
		}
		for i := range args {
			if msg := keyArg(i, t, "tail"); msg != "" {
				return recv, msg, true
			}
		}
		return recv, "", true
	case "uselect":
		if len(args) != 1 && len(args) != 2 {
			return BATOf(materialAtom(h), monet.Void), fmt.Sprintf("uselect expects 1 or 2 argument(s), got %d", len(args)), true
		}
		for i := range args {
			if msg := keyArg(i, t, "tail"); msg != "" {
				return BATOf(materialAtom(h), monet.Void), msg, true
			}
		}
		return BATOf(materialAtom(h), monet.Void), "", true
	case "find":
		if msg := argc(1); msg != "" {
			return AnyAtomType(), msg, true
		}
		if msg := keyArg(0, h, "head"); msg != "" {
			return AnyAtomType(), msg, true
		}
		return AtomOf(t), "", true
	case "exists":
		if msg := argc(1); msg != "" {
			return AtomOf(monet.BoolT), msg, true
		}
		if msg := keyArg(0, h, "head"); msg != "" {
			return AtomOf(monet.BoolT), msg, true
		}
		return AtomOf(monet.BoolT), "", true
	case "count":
		return AtomOf(monet.IntT), argc(0), true
	case "sum", "avg":
		if msg := argc(0); msg != "" {
			return AtomOf(monet.FloatT), msg, true
		}
		if recv.Kind == BATK && !numericAtom(t) {
			return AtomOf(monet.FloatT), fmt.Sprintf("%s over non-numeric tail %s", name, atomName(t)), true
		}
		return AtomOf(monet.FloatT), "", true
	case "max", "min":
		return AtomOf(t), argc(0), true
	case "argmax", "argmin":
		if msg := argc(0); msg != "" {
			return AtomOf(materialAtom(h)), msg, true
		}
		if recv.Kind == BATK && !numericAtom(t) {
			return AtomOf(materialAtom(h)), fmt.Sprintf("%s over non-numeric tail %s", name, atomName(t)), true
		}
		return AtomOf(materialAtom(h)), "", true
	case "sort", "sorthead", "copy":
		return recv, argc(0), true
	case "slice":
		if msg := argc(2); msg != "" {
			return recv, msg, true
		}
		for i := range args {
			if msg := wantNumeric(args[i]); msg != "" {
				return recv, fmt.Sprintf("slice argument %d: %s", i+1, msg), true
			}
		}
		return recv, "", true
	case "histogram":
		return BATOf(materialAtom(t), monet.IntT), argc(0), true
	case "map":
		// Result tail depends on the named PROC; the checker resolves
		// it separately when the name is a literal.
		return BATOf(materialAtom(h), AnyAtom), argc(1), true
	case "filterproc":
		return recv, argc(1), true
	}
	return Any(), "", false
}
