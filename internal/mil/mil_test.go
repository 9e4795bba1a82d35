package mil

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"cobra/internal/monet"
)

func run(t *testing.T, src string) Value {
	t.Helper()
	in := NewInterp(monet.NewStore())
	v, err := in.Exec(src)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"1 + 2 * 3;", 7},
		{"(1 + 2) * 3;", 9},
		{"10 / 3;", 3},
		{"10 % 3;", 1},
		{"-4 + 1;", -3},
	}
	for _, c := range cases {
		if got := run(t, c.src); got.Atom.Int() != c.want {
			t.Errorf("%q = %v, want %d", c.src, got, c.want)
		}
	}
}

func TestFloatArithmetic(t *testing.T) {
	v := run(t, "1.5 * 4;")
	if v.Atom.Float() != 6.0 {
		t.Fatalf("got %v", v)
	}
	v = run(t, "1e3 + 2.2e-1;")
	if v.Atom.Float() != 1000.22 {
		t.Fatalf("got %v", v)
	}
}

func TestComparisonAndString(t *testing.T) {
	if v := run(t, `"abc" = "abc";`); !v.Atom.Bool() {
		t.Fatal("string equality failed")
	}
	if v := run(t, `"a" + "b";`); v.Atom.Str() != "ab" {
		t.Fatalf("concat = %v", v)
	}
	if v := run(t, "3 < 2;"); v.Atom.Bool() {
		t.Fatal("3 < 2 should be false")
	}
	if v := run(t, "2.5 >= 2;"); !v.Atom.Bool() {
		t.Fatal("mixed numeric compare failed")
	}
}

func TestVarAndAssign(t *testing.T) {
	v := run(t, `
		VAR x := 10;
		x := x + 5;
		x;
	`)
	if v.Atom.Int() != 15 {
		t.Fatalf("x = %v, want 15", v)
	}
}

func TestIfElseWhile(t *testing.T) {
	v := run(t, `
		VAR n := 0;
		VAR i := 0;
		WHILE (i < 10) {
			IF (i % 2 = 0) { n := n + 1; } ELSE { n := n + 100; }
			i := i + 1;
		}
		n;
	`)
	if v.Atom.Int() != 505 {
		t.Fatalf("n = %v, want 505", v)
	}
}

func TestElseIfChain(t *testing.T) {
	v := run(t, `
		VAR x := 7;
		VAR label := "";
		IF (x < 5) { label := "small"; }
		ELSE IF (x < 10) { label := "medium"; }
		ELSE { label := "large"; }
		label;
	`)
	if v.Atom.Str() != "medium" {
		t.Fatalf("label = %v", v)
	}
}

func TestBATConstructionAndOps(t *testing.T) {
	v := run(t, `
		VAR b := new(void, dbl);
		b.insert(nil, 1.0);
		b.insert(nil, 3.5);
		b.insert(nil, 2.0);
		b.max;
	`)
	if v.Atom.Float() != 3.5 {
		t.Fatalf("max = %v", v)
	}
}

func TestBATInsertFindCount(t *testing.T) {
	v := run(t, `
		VAR m := new(str, dbl);
		m.insert("Service", 0.4);
		m.insert("Smash", 0.9);
		m.insert("Backhand", 0.2);
		m.count;
	`)
	if v.Atom.Int() != 3 {
		t.Fatalf("count = %v", v)
	}
	v = run(t, `
		VAR m := new(str, dbl);
		m.insert("Smash", 0.9);
		m.find("Smash");
	`)
	if v.Atom.Float() != 0.9 {
		t.Fatalf("find = %v", v)
	}
}

// TestFig4Pattern exercises the paper's Fig. 4 idiom: evaluate several
// models, insert scores into parEval, then reverse().find(max) to get
// the best label (here via argmax).
func TestFig4Pattern(t *testing.T) {
	v := run(t, `
		VAR parEval := new(str, dbl);
		parEval.insert("Service", 0.12);
		parEval.insert("Forehand", 0.55);
		parEval.insert("Smash", 0.31);
		VAR najmanji := parEval.max;
		VAR ret := (parEval.reverse).find(najmanji);
		RETURN ret;
	`)
	if v.Atom.Str() != "Forehand" {
		t.Fatalf("winner = %v, want Forehand", v)
	}
}

func TestProcDeclarationAndCall(t *testing.T) {
	v := run(t, `
		PROC addAll(BAT[void,dbl] xs, dbl bonus) : dbl := {
			RETURN xs.sum + bonus;
		}
		VAR b := new(void, dbl);
		b.insert(nil, 1.0);
		b.insert(nil, 2.0);
		addAll(b, 10.0);
	`)
	if v.Atom.Float() != 13.0 {
		t.Fatalf("proc result = %v", v)
	}
}

func TestProcArgCountMismatch(t *testing.T) {
	in := NewInterp(nil)
	_, err := in.Exec(`
		PROC f(int x) := { RETURN x; }
		f(1, 2);
	`)
	if err == nil || !strings.Contains(err.Error(), "expects 1 args") {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelBlock(t *testing.T) {
	v := run(t, `
		VAR results := new(str, int);
		VAR c := threadcnt(4);
		PARALLEL {
			results.insert("a", 1);
			results.insert("b", 2);
			results.insert("c", 3);
			results.insert("d", 4);
		}
		results.sum;
	`)
	if v.Atom.Float() != 10 {
		t.Fatalf("parallel sum = %v", v)
	}
}

func TestThreadcntResizesPool(t *testing.T) {
	prev := monet.SetDefaultPoolWorkers(2)
	defer monet.SetDefaultPoolWorkers(prev)
	v := run(t, `
		VAR old := threadcnt(6);
		RETURN poolsize();
	`)
	if v.Atom.Int() != 6 {
		t.Fatalf("poolsize after threadcnt(6) = %v, want 6", v)
	}
	if monet.DefaultPool().Workers() != 6 {
		t.Fatalf("kernel pool width = %d, want 6", monet.DefaultPool().Workers())
	}
}

func TestParallelRunsConcurrently(t *testing.T) {
	var calls int64
	in := NewInterp(nil)
	in.Register("bump", func(_ *Interp, _ []Value) (Value, error) {
		atomic.AddInt64(&calls, 1)
		return AtomValue(monet.NewInt(1)), nil
	})
	if _, err := in.Exec(`
		VAR c := threadcnt(3);
		PARALLEL { bump(); bump(); bump(); bump(); bump(); }
	`); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestStoreIntegration(t *testing.T) {
	store := monet.NewStore()
	in := NewInterp(store)
	if _, err := in.Exec(`
		VAR b := new(void, int);
		b.insert(nil, 42);
		register("answers", b);
	`); err != nil {
		t.Fatal(err)
	}
	b, err := store.Get("answers")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || b.Tail(0).Int() != 42 {
		t.Fatalf("stored BAT = %s", b.Dump(5))
	}
	v, err := in.Exec(`bat("answers").count;`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Atom.Int() != 1 {
		t.Fatalf("count = %v", v)
	}
}

func TestIndexBuiltins(t *testing.T) {
	store := monet.NewStore()
	b := monet.NewBATCap(monet.Void, monet.IntT, 1000)
	for i := 0; i < 1000; i++ {
		b.MustInsert(monet.VoidValue(), monet.NewInt(int64(i%100)))
	}
	store.Put("laps", b)
	in := NewInterp(store)

	v, err := in.Exec(`zonemap("laps");`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Atom.Int() != 1 { // 1000 rows fit one morsel
		t.Fatalf("zonemap morsels = %v", v)
	}
	v, err = in.Exec(`indexinfo("laps").find("zonemap");`)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Atom.Str(); got != "1 morsels" {
		t.Fatalf("indexinfo zonemap = %q", got)
	}
	// Selects keep working against the zone-mapped column.
	v, err = in.Exec(`bat("laps").uselect(10, 19).count;`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Atom.Int() != 100 {
		t.Fatalf("uselect count = %v", v)
	}
	// Errors: missing BAT, no store.
	if _, err := in.Exec(`zonemap("no/such");`); err == nil {
		t.Fatal("zonemap on missing BAT accepted")
	}
	if _, err := in.Exec(`indexinfo("no/such");`); err == nil {
		t.Fatal("indexinfo on missing BAT accepted")
	}
	nostore := NewInterp(nil)
	for _, src := range []string{`zonemap("x");`, `indexinfo("x");`} {
		if _, err := nostore.Exec(src); err == nil {
			t.Fatalf("%q without a store accepted", src)
		}
	}
}

func TestUndefinedVariable(t *testing.T) {
	in := NewInterp(nil)
	_, err := in.Exec("nosuch;")
	if !errors.Is(err, ErrUndefined) {
		t.Fatalf("err = %v, want ErrUndefined", err)
	}
}

func TestUndefinedFunction(t *testing.T) {
	in := NewInterp(nil)
	_, err := in.Exec("nosuch(1);")
	if !errors.Is(err, ErrUndefined) {
		t.Fatalf("err = %v, want ErrUndefined", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	in := NewInterp(nil)
	if _, err := in.Exec("1 / 0;"); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

func TestRegisteredBuiltin(t *testing.T) {
	in := NewInterp(nil)
	in.Register("quant1", func(_ *Interp, args []Value) (Value, error) {
		out := monet.NewBAT(monet.Void, monet.IntT)
		for range args {
			out.MustInsert(monet.VoidValue(), monet.NewInt(int64(out.Len())))
		}
		return BATValue(out), nil
	})
	v, err := in.Exec(`
		VAR Obs := new(void, int);
		Obs := quant1(1.0, 2.0, 3.0);
		Obs.count;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Atom.Int() != 3 {
		t.Fatalf("count = %v", v)
	}
}

func TestCommentsAndCaseInsensitiveKeywords(t *testing.T) {
	v := run(t, `
		# a comment line
		var X := 1; # trailing comment
		RETURN X + 1;
	`)
	if v.Atom.Int() != 2 {
		t.Fatalf("got %v", v)
	}
}

func TestMathBuiltins(t *testing.T) {
	if v := run(t, "abs(-3);"); v.Atom.Int() != 3 {
		t.Fatalf("abs = %v", v)
	}
	if v := run(t, "sqrt(16.0);"); v.Atom.Float() != 4 {
		t.Fatalf("sqrt = %v", v)
	}
	if v := run(t, "int(3.9);"); v.Atom.Int() != 3 {
		t.Fatalf("int = %v", v)
	}
}

func TestPrintOutput(t *testing.T) {
	in := NewInterp(nil)
	if _, err := in.Exec(`print("hello", 42);`); err != nil {
		t.Fatal(err)
	}
	out := in.Output()
	if len(out) != 1 || out[0] != `"hello" 42` {
		t.Fatalf("output = %q", out)
	}
}

func TestSelectAndSlice(t *testing.T) {
	v := run(t, `
		VAR b := new(void, int);
		VAR i := 0;
		WHILE (i < 10) { b.insert(nil, i); i := i + 1; }
		b.select(3, 6).count;
	`)
	if v.Atom.Int() != 4 {
		t.Fatalf("select count = %v", v)
	}
	v = run(t, `
		VAR b := new(void, int);
		b.insert(nil, 1); b.insert(nil, 2); b.insert(nil, 3);
		b.slice(1, 3).count;
	`)
	if v.Atom.Int() != 2 {
		t.Fatalf("slice count = %v", v)
	}
}

func TestJoinThroughMIL(t *testing.T) {
	v := run(t, `
		VAR names := new(oid, str);
		names.insert(oid(1), "ms");
		names.insert(oid(2), "rb");
		VAR scores := new(oid, dbl);
		scores.insert(oid(1), 9.5);
		scores.insert(oid(2), 8.0);
		VAR joined := (names.reverse).join(scores);
		joined.find("ms");
	`)
	if v.Atom.Float() != 9.5 {
		t.Fatalf("join find = %v", v)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"VAR := 1;",
		"1 +;",
		"IF (1) { ",
		`"unterminated`,
		"PROC f( := {};",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestMethodOnAtomFails(t *testing.T) {
	in := NewInterp(nil)
	if _, err := in.Exec("VAR x := 1; x.count;"); err == nil {
		t.Fatal("method on atom should fail")
	}
}

func TestNestedProcs(t *testing.T) {
	v := run(t, `
		PROC double(int x) : int := { RETURN x * 2; }
		PROC quad(int x) : int := { RETURN double(double(x)); }
		quad(3);
	`)
	if v.Atom.Int() != 12 {
		t.Fatalf("quad(3) = %v", v)
	}
}

func TestProcBATTypeCheck(t *testing.T) {
	in := NewInterp(nil)
	_, err := in.Exec(`
		PROC f(BAT[void,dbl] b) := { RETURN b.count; }
		f(3);
	`)
	if err == nil || !strings.Contains(err.Error(), "expects a BAT") {
		t.Fatalf("err = %v", err)
	}
}

func TestCalcBuiltins(t *testing.T) {
	v := run(t, `
		VAR a := new(void, dbl);
		a.insert(nil, 0.2); a.insert(nil, 0.8);
		VAR b := new(void, dbl);
		b.insert(nil, 0.3); b.insert(nil, 0.1);
		VAR s := calcadd(a, b);
		s.sum;
	`)
	if v.Atom.Float() != 1.4 {
		t.Fatalf("calcadd sum = %v", v)
	}
	v = run(t, `
		VAR a := new(void, dbl);
		a.insert(nil, 0.2); a.insert(nil, 0.8);
		threshold(a, 0.5).sum;
	`)
	if v.Atom.Float() != 1 {
		t.Fatalf("threshold sum = %v", v)
	}
	v = run(t, `
		VAR a := new(void, dbl);
		a.insert(nil, 1.0); a.insert(nil, 3.0);
		mavg(a, 2).max;
	`)
	if v.Atom.Float() != 2 {
		t.Fatalf("mavg max = %v", v)
	}
	v = run(t, `
		VAR a := new(void, dbl);
		a.insert(nil, 2.0);
		clamp(scale(a, 3.0, 0.0), 0.0, 5.0).max;
	`)
	if v.Atom.Float() != 5 {
		t.Fatalf("scale/clamp = %v", v)
	}
}

func TestCalcBuiltinErrors(t *testing.T) {
	in := NewInterp(nil)
	if _, err := in.Exec(`calcadd(1, 2);`); err == nil {
		t.Fatal("calcadd over atoms accepted")
	}
	if _, err := in.Exec(`
		VAR a := new(void, dbl); a.insert(nil, 1.0);
		mavg(a, 0);
	`); err == nil {
		t.Fatal("mavg window 0 accepted")
	}
}

func TestMapMethod(t *testing.T) {
	v := run(t, `
		PROC double(void h, int x) : int := { RETURN x * 2; }
		VAR b := new(void, int);
		b.insert(nil, 1); b.insert(nil, 2); b.insert(nil, 3);
		b.map("double").sum;
	`)
	if v.Atom.Float() != 12 {
		t.Fatalf("map sum = %v", v)
	}
}

func TestFilterProcMethod(t *testing.T) {
	v := run(t, `
		PROC big(void h, int x) : bit := { RETURN x > 1; }
		VAR b := new(void, int);
		b.insert(nil, 1); b.insert(nil, 2); b.insert(nil, 3);
		b.filterproc("big").count;
	`)
	if v.Atom.Int() != 2 {
		t.Fatalf("filterproc count = %v", v)
	}
}

func TestMapErrors(t *testing.T) {
	in := NewInterp(nil)
	if _, err := in.Exec(`
		VAR b := new(void, int); b.insert(nil, 1);
		b.map("nosuch");
	`); err == nil {
		t.Fatal("map with unknown PROC accepted")
	}
	if _, err := in.Exec(`
		PROC bad(void h, int x) : int := { RETURN x; }
		VAR b := new(void, int); b.insert(nil, 1);
		b.map(42);
	`); err == nil {
		t.Fatal("map with non-string accepted")
	}
}

func TestMoreBATMethods(t *testing.T) {
	v := run(t, `
		VAR a := new(oid, int);
		a.insert(oid(1), 10); a.insert(oid(2), 20); a.insert(oid(3), 30);
		VAR keys := new(oid, int);
		keys.insert(oid(2), 0);
		a.semijoin(keys).count;
	`)
	if v.Atom.Int() != 1 {
		t.Fatalf("semijoin = %v", v)
	}
	v = run(t, `
		VAR a := new(oid, int); a.insert(oid(1), 10); a.insert(oid(2), 20);
		VAR k := new(oid, int); k.insert(oid(1), 0);
		a.kdiff(k).count;
	`)
	if v.Atom.Int() != 1 {
		t.Fatalf("kdiff = %v", v)
	}
	v = run(t, `
		VAR a := new(oid, int); a.insert(oid(1), 10);
		VAR b := new(oid, int); b.insert(oid(2), 20);
		a.kunion(b).count;
	`)
	if v.Atom.Int() != 2 {
		t.Fatalf("kunion = %v", v)
	}
	v = run(t, `
		VAR a := new(oid, int); a.insert(oid(3), 5); a.insert(oid(1), 9);
		a.sorthead.count;
	`)
	if v.Atom.Int() != 2 {
		t.Fatalf("sorthead = %v", v)
	}
	v = run(t, `
		VAR a := new(str, dbl); a.insert("x", 2.0); a.insert("y", 1.0);
		a.argmin;
	`)
	if v.Atom.Str() != "y" {
		t.Fatalf("argmin = %v", v)
	}
	v = run(t, `
		VAR a := new(oid, int); a.insert(oid(1), 7);
		a.exists(oid(1));
	`)
	if !v.Atom.Bool() {
		t.Fatalf("exists = %v", v)
	}
	v = run(t, `
		VAR a := new(oid, int); a.insert(oid(5), 7);
		a.mirror.find(oid(5));
	`)
	if v.Atom.OID() != 5 {
		t.Fatalf("mirror = %v", v)
	}
	v = run(t, `
		VAR a := new(void, int); a.insert(nil, 1); a.insert(nil, 5);
		a.uselect(5).count;
	`)
	if v.Atom.Int() != 1 {
		t.Fatalf("uselect = %v", v)
	}
	v = run(t, `
		VAR a := new(void, dbl); a.insert(nil, 1.0); a.insert(nil, 3.0);
		a.avg;
	`)
	if v.Atom.Float() != 2 {
		t.Fatalf("avg = %v", v)
	}
	v = run(t, `
		VAR a := new(void, dbl); a.insert(nil, 1.0); a.insert(nil, 3.0);
		a.min;
	`)
	if v.Atom.Float() != 1 {
		t.Fatalf("min = %v", v)
	}
	v = run(t, `
		VAR a := new(void, int); a.insert(nil, 2);
		VAR b := new(void, int); b.insert(nil, 3);
		a.append(b).sum;
	`)
	if v.Atom.Float() != 5 {
		t.Fatalf("append = %v", v)
	}
	v = run(t, `
		VAR a := new(void, int); a.insert(nil, 2);
		a.histogram.count;
	`)
	if v.Atom.Int() != 1 {
		t.Fatalf("histogram = %v", v)
	}
	v = run(t, `
		VAR a := new(void, int); a.insert(nil, 2); a.insert(nil, 9);
		a.mark(100).reverse.find(oid(101));
	`)
	if v.Atom.OID() != 1 {
		t.Fatalf("mark = %v", v)
	}
}

func TestTruthyBranches(t *testing.T) {
	// BAT truthiness: non-empty BAT is true.
	v := run(t, `
		VAR a := new(void, int);
		VAR label := "empty";
		IF (a) { label := "full"; }
		a.insert(nil, 1);
		IF (a) { label := "full"; }
		label;
	`)
	if v.Atom.Str() != "full" {
		t.Fatalf("BAT truthiness = %v", v)
	}
	// String truthiness.
	v = run(t, `
		VAR s := "";
		VAR out := 0;
		IF (s) { out := 1; }
		IF ("x") { out := out + 2; }
		out;
	`)
	if v.Atom.Int() != 2 {
		t.Fatalf("string truthiness = %v", v)
	}
	// Float truthiness.
	v = run(t, `
		VAR out := 0;
		IF (0.0) { out := 1; }
		IF (0.5) { out := out + 2; }
		out;
	`)
	if v.Atom.Int() != 2 {
		t.Fatalf("float truthiness = %v", v)
	}
}

func TestProcReturnTypeAnnotations(t *testing.T) {
	v := run(t, `
		PROC mk() : BAT[void,int] := {
			VAR b := new(void, int);
			b.insert(nil, 7);
			RETURN b;
		}
		VAR x : int := mk().sum;
		x;
	`)
	if v.Atom.Float() != 7 {
		t.Fatalf("annotated proc = %v", v)
	}
}

func TestInterpAccessors(t *testing.T) {
	store := monet.NewStore()
	in := NewInterp(store)
	if in.Store() != store {
		t.Fatal("Store accessor wrong")
	}
	in.SetGlobal("x", AtomValue(monet.NewInt(9)))
	v, ok := in.Global("x")
	if !ok || v.Atom.Int() != 9 {
		t.Fatalf("Global = %v, %v", v, ok)
	}
	if _, err := in.Exec(`PROC f() := { RETURN 1; }`); err != nil {
		t.Fatal(err)
	}
	if ps := in.Procs(); len(ps) != 1 || ps[0] != "f" {
		t.Fatalf("Procs = %v", ps)
	}
}

func TestValueString(t *testing.T) {
	b := monet.NewBAT(monet.Void, monet.IntT)
	b.MustInsert(monet.VoidValue(), monet.NewInt(1))
	if s := BATValue(b).String(); !strings.Contains(s, "bat[void,int]") {
		t.Fatalf("BAT string = %q", s)
	}
	in := NewInterp(nil)
	if _, err := in.Exec(`PROC g() := { RETURN 1; }`); err != nil {
		t.Fatal(err)
	}
	pv := Value{Proc: in.procs["g"]}
	if pv.String() != "proc g" {
		t.Fatalf("proc string = %q", pv.String())
	}
}
