package milcheck

import (
	"strings"
	"testing"

	"cobra/internal/mil"
	"cobra/internal/monet"
)

// analyzeSrc parses and analyzes, failing the test on parse errors.
func analyzeSrc(t *testing.T, src string, opts *Options) *Result {
	t.Helper()
	prog, err := mil.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Analyze(prog, opts)
}

func check(t *testing.T, src string, opts *Options) []Diagnostic {
	t.Helper()
	diags, err := CheckSource(src, opts)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return diags
}

// wantDiag asserts a diagnostic with the given code exists at line:col
// with the given severity.
func wantDiag(t *testing.T, diags []Diagnostic, code string, sev Severity, line, col int) {
	t.Helper()
	for _, d := range diags {
		if d.Code == code && d.Line == line && d.Col == col && d.Severity == sev {
			return
		}
	}
	t.Errorf("missing %s %s at %d:%d; got:\n%s", sev, code, line, col, renderDiags(diags))
}

func wantNoDiag(t *testing.T, diags []Diagnostic, code string) {
	t.Helper()
	for _, d := range diags {
		if d.Code == code {
			t.Errorf("unexpected %s: %s", code, d)
		}
	}
}

func wantClean(t *testing.T, diags []Diagnostic) {
	t.Helper()
	if len(diags) != 0 {
		t.Errorf("expected no diagnostics, got:\n%s", renderDiags(diags))
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (none)"
	}
	return b.String()
}

func TestUnboundVar(t *testing.T) {
	diags := check(t, "VAR a := 1;\nprint(bogus);\n", nil)
	wantDiag(t, diags, "unbound-var", Error, 2, 7)
}

func TestAssignUndeclared(t *testing.T) {
	diags := check(t, "x := 42;\n", nil)
	wantDiag(t, diags, "unbound-var", Error, 1, 1)
}

func TestTypeMismatchSeededPlan(t *testing.T) {
	// The acceptance-criteria seeded plan: selecting with a string key
	// over an int tail silently returns nothing at runtime because the
	// kernel compares unequal types by type id.
	src := `VAR speeds := new(oid, int);
speeds.insert(oid(0), 180);
VAR fast := speeds.uselect("180", "300");
print(fast.count);
`
	diags := check(t, src, nil)
	wantDiag(t, diags, "bad-call", Error, 3, 19)
}

func TestAnnotationMismatch(t *testing.T) {
	diags := check(t, "VAR n : str := 42;\nprint(n);\n", nil)
	wantDiag(t, diags, "type-mismatch", Error, 1, 1)
}

func TestAssignKindFlip(t *testing.T) {
	src := "VAR b := new(void, dbl);\nb := 1;\nprint(b);\n"
	diags := check(t, src, nil)
	wantDiag(t, diags, "type-mismatch", Error, 2, 1)
}

func TestParallelWriteWrite(t *testing.T) {
	// Two branches assigning the same outer variable: last write wins
	// nondeterministically.
	src := `VAR best := 0;
PARALLEL {
  best := 1;
  best := 2;
}
print(best);
`
	diags := check(t, src, nil)
	wantDiag(t, diags, "parallel-write-write", Error, 4, 3)
}

func TestParallelReadWrite(t *testing.T) {
	src := `VAR x := 0;
PARALLEL {
  x := 1;
  print(x + 1);
}
`
	diags := check(t, src, nil)
	wantDiag(t, diags, "parallel-read-write", Error, 3, 3)
}

func TestParallelMutateReadWarns(t *testing.T) {
	src := `VAR scores := new(str, dbl);
PARALLEL {
  scores.insert("a", 0.9);
  print(scores.count);
}
`
	diags := check(t, src, nil)
	wantDiag(t, diags, "parallel-mutate-read", Warning, 4, 9)
	if HasErrors(diags) {
		t.Errorf("mutate-read should not be an error:\n%s", renderDiags(diags))
	}
}

func TestParallelFig4PatternAccepted(t *testing.T) {
	// The paper's Fig. 4 idiom: every branch inserts into one shared
	// result BAT. The interpreter serializes in-place inserts, so this
	// must pass without errors.
	src := `VAR parEval := new(str, dbl);
PARALLEL {
  parEval.insert("seg1", 0.9);
  parEval.insert("seg2", 0.7);
  parEval.insert("seg3", 0.4);
}
VAR best := parEval.reverse.max;
print(best);
`
	diags := check(t, src, nil)
	if HasErrors(diags) {
		t.Errorf("Fig. 4 pattern should check clean:\n%s", renderDiags(diags))
	}
	wantNoDiag(t, diags, "parallel-write-write")
	wantNoDiag(t, diags, "parallel-read-write")
}

func TestParallelBranchLocalIsFine(t *testing.T) {
	src := `PARALLEL {
  { VAR a := 1; print(a); }
  { VAR a := 2; print(a); }
}
`
	wantClean(t, check(t, src, nil))
}

func TestUnusedVar(t *testing.T) {
	diags := check(t, "VAR unused := 1;\nVAR used := 2;\nprint(used);\n", nil)
	wantDiag(t, diags, "unused-var", Warning, 1, 1)
	wantNoDiag(t, diags, "redeclared")
}

func TestUnderscoreSuppressesUnused(t *testing.T) {
	wantClean(t, check(t, "VAR _scratch := 1;\n", nil))
}

func TestRedeclared(t *testing.T) {
	diags := check(t, "VAR a := 1;\nVAR a := 2;\nprint(a);\n", nil)
	wantDiag(t, diags, "redeclared", Warning, 2, 1)
}

func TestUnreachable(t *testing.T) {
	src := `PROC f(int x) : int := {
  RETURN x + 1;
  print(x);
}
print(f(1));
`
	diags := check(t, src, nil)
	wantDiag(t, diags, "unreachable", Warning, 3, 3)
}

func TestConstCond(t *testing.T) {
	diags := check(t, "IF (true) { print(1); }\n", nil)
	wantDiag(t, diags, "const-cond", Warning, 1, 5)
}

func TestUnknownFuncErrorAndLenient(t *testing.T) {
	src := "print(frobnicate(1));\n"
	wantDiag(t, check(t, src, nil), "unknown-func", Error, 1, 7)
	wantDiag(t, check(t, src, &Options{LenientCalls: true}), "unknown-func", Warning, 1, 7)
	wantClean(t, check(t, src, &Options{KnownFuncs: []string{"frobnicate"}}))
}

func TestUnknownMethod(t *testing.T) {
	diags := check(t, "VAR b := new(void, int);\nprint(b.explode);\n", nil)
	wantDiag(t, diags, "unknown-method", Error, 2, 8)
}

func TestTypeInferenceThroughPlan(t *testing.T) {
	// A Fig. 5-style plan: join lap times to drivers and aggregate.
	src := `VAR laps := new(oid, dbl);
laps.insert(oid(0), 83.2);
VAR drivers := new(oid, str);
drivers.insert(oid(0), "mschumacher");
VAR sel := laps.uselect(80.0, 90.0);
VAR hits := sel.mirror.join(drivers);
RETURN hits;
`
	res := analyzeSrc(t, src, nil)
	wantClean(t, res.Diags)
	if got := res.Vars["sel"].String(); got != "BAT[oid,void]" {
		t.Errorf("sel type = %s, want BAT[oid,void]", got)
	}
	if got := res.Vars["hits"].String(); got != "BAT[oid,str]" {
		t.Errorf("hits type = %s, want BAT[oid,str]", got)
	}
	if got := res.Value.String(); got != "BAT[oid,str]" {
		t.Errorf("program value = %s, want BAT[oid,str]", got)
	}
}

func TestJoinColumnMismatch(t *testing.T) {
	src := `VAR a := new(oid, str);
VAR b := new(oid, dbl);
print(a.join(b).count);
`
	diags := check(t, src, nil)
	wantDiag(t, diags, "bad-call", Error, 3, 8)
}

func TestKUnionMismatch(t *testing.T) {
	src := `VAR a := new(oid, dbl);
VAR b := new(oid, str);
print(a.kunion(b).count);
`
	diags := check(t, src, nil)
	wantDiag(t, diags, "bad-call", Error, 3, 8)
}

func TestHistogramAndMarkTypes(t *testing.T) {
	src := `VAR ev := new(void, str);
VAR h := ev.histogram;
print(h.count);
VAR m := ev.reverse.mark;
RETURN m;
`
	res := analyzeSrc(t, src, nil)
	wantClean(t, res.Diags)
	if got := res.Vars["h"].String(); got != "BAT[str,int]" {
		t.Errorf("histogram type = %s, want BAT[str,int]", got)
	}
	if got := res.Vars["m"].String(); got != "BAT[str,oid]" {
		t.Errorf("mark type = %s, want BAT[str,oid]", got)
	}
}

func TestSumOverNonNumericTail(t *testing.T) {
	diags := check(t, "VAR names := new(void, str);\nprint(names.sum);\n", nil)
	wantDiag(t, diags, "bad-call", Error, 2, 12)
}

func TestProcArityAndTypes(t *testing.T) {
	src := `PROC double(int x) : int := { RETURN x * 2; }
print(double(1, 2));
print(double("no"));
print(double(21));
`
	diags := check(t, src, nil)
	wantDiag(t, diags, "bad-call", Error, 2, 7)
	wantDiag(t, diags, "type-mismatch", Error, 3, 7)
}

func TestProcReturnInference(t *testing.T) {
	src := `PROC mk() := { RETURN new(void, dbl); }
VAR b := mk();
RETURN b;
`
	res := analyzeSrc(t, src, nil)
	wantClean(t, res.Diags)
	if got := res.Vars["b"].String(); got != "BAT[void,dbl]" {
		t.Errorf("b type = %s, want BAT[void,dbl]", got)
	}
}

func TestProcDeclaredReturnMismatch(t *testing.T) {
	src := `PROC bad() : int := { RETURN "nope"; }
print(bad());
`
	diags := check(t, src, nil)
	wantDiag(t, diags, "type-mismatch", Error, 1, 1)
}

func TestProcUsedBeforeDecl(t *testing.T) {
	src := `print(later(2));
PROC later(int x) : int := { RETURN x; }
`
	diags := check(t, src, nil)
	wantNoDiag(t, diags, "unknown-func")
}

func TestRecursiveProc(t *testing.T) {
	src := `PROC fact(int n) : int := {
  IF (n < 2) { RETURN 1; }
  RETURN n * fact(n - 1);
}
print(fact(5));
`
	diags := check(t, src, nil)
	if HasErrors(diags) {
		t.Errorf("recursive proc should check clean:\n%s", renderDiags(diags))
	}
}

func TestMapProcResolution(t *testing.T) {
	src := `PROC toStr(oid h, dbl v) : str := { RETURN str(v); }
VAR b := new(oid, dbl);
VAR s := b.map("toStr");
RETURN s;
`
	res := analyzeSrc(t, src, nil)
	wantClean(t, res.Diags)
	if got := res.Vars["s"].String(); got != "BAT[oid,str]" {
		t.Errorf("map result = %s, want BAT[oid,str]", got)
	}

	diags := check(t, "VAR b := new(oid, dbl);\nprint(b.map(\"nosuch\").count);\n", nil)
	wantDiag(t, diags, "unbound-var", Error, 2, 8)
}

func TestResolveBAT(t *testing.T) {
	opts := &Options{
		ResolveBAT: func(name string) (monet.Type, monet.Type, bool) {
			if name == "cobra/videos" {
				return monet.OIDT, monet.StrT, true
			}
			return 0, 0, false
		},
	}
	res := analyzeSrc(t, "RETURN bat(\"cobra/videos\");\n", opts)
	wantClean(t, res.Diags)
	if got := res.Value.String(); got != "BAT[oid,str]" {
		t.Errorf("value = %s, want BAT[oid,str]", got)
	}

	diags := check(t, "print(bat(\"nope\").count);\n", opts)
	wantDiag(t, diags, "unknown-bat", Warning, 1, 7)
}

func TestRegisterThenBATResolves(t *testing.T) {
	// register() publishes within the plan; a later bat() lookup of the
	// same literal name must see the registered type, even with a store
	// resolver that does not know the name yet.
	opts := &Options{ResolveBAT: func(string) (monet.Type, monet.Type, bool) { return 0, 0, false }}
	src := `register("tmp/x", new(void, dbl));
RETURN bat("tmp/x");
`
	res := analyzeSrc(t, src, opts)
	wantClean(t, res.Diags)
	if got := res.Value.String(); got != "BAT[void,dbl]" {
		t.Errorf("value = %s, want BAT[void,dbl]", got)
	}
}

func TestGlobalsOption(t *testing.T) {
	opts := &Options{Globals: map[string]VType{"session": BATOf(monet.OIDT, monet.StrT)}}
	wantClean(t, check(t, "print(session.count);\n", opts))
}

func TestExtensionSigs(t *testing.T) {
	opts := &Options{Funcs: ExtensionSigs()}
	src := `VAR obs := new(void, int);
VAR ll := hmmOneCall("overtake", obs);
print(ll);
`
	wantClean(t, check(t, src, opts))

	diags := check(t, "print(hmmOneCall(42, new(void,int)));\n", opts)
	wantDiag(t, diags, "bad-call", Error, 1, 7)
}

func TestBinaryOperators(t *testing.T) {
	diags := check(t, "VAR b := new(void, int);\nprint(b + 1);\n", nil)
	wantDiag(t, diags, "type-mismatch", Error, 2, 9)

	diags = check(t, "print(\"a\" < 1);\n", nil)
	wantDiag(t, diags, "type-mismatch", Error, 1, 11)

	diags = check(t, "print(1.5 % 2.0);\n", nil)
	wantDiag(t, diags, "type-mismatch", Error, 1, 11)

	wantClean(t, check(t, "print(\"a\" + \"b\");\nprint(1 + 2);\nprint(1 < 2.0);\n", nil))
}

func TestNegateString(t *testing.T) {
	diags := check(t, "print(-\"x\");\n", nil)
	wantDiag(t, diags, "type-mismatch", Error, 1, 7)
}

func TestNoValueContexts(t *testing.T) {
	diags := check(t, "VAR p := print(1);\n", nil)
	wantDiag(t, diags, "no-value", Error, 1, 1)
}

func TestReturnInParallelWarns(t *testing.T) {
	src := `PARALLEL {
  RETURN 1;
  print(2);
}
`
	diags := check(t, src, nil)
	wantDiag(t, diags, "return-in-parallel", Warning, 2, 3)
}

func TestDiagnosticStringFormat(t *testing.T) {
	d := Diagnostic{Line: 3, Col: 7, Severity: Error, Code: "unbound-var", Msg: "undefined variable \"x\""}
	want := `3:7: error: undefined variable "x" [unbound-var]`
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}

func TestCheckSourceParseError(t *testing.T) {
	_, err := CheckSource("VAR := ;", nil)
	if err == nil {
		t.Fatal("expected parse error")
	}
}

func TestIndexBuiltinSigs(t *testing.T) {
	diags := check(t, `print(zonemap("laps") + 1);
VAR ii := indexinfo("laps");
print(ii.find("zonemap"));
`, nil)
	wantClean(t, diags)
	// Non-string BAT names and wrong arity are diagnosed.
	diags = check(t, `print(zonemap(1.5));`, nil)
	wantDiag(t, diags, "bad-call", Error, 1, 7)
	diags = check(t, `print(indexinfo("x", "y").count);`, nil)
	wantDiag(t, diags, "bad-call", Error, 1, 7)
}

func TestIndexBuildersInParallelWarn(t *testing.T) {
	src := `PARALLEL {
  print(zonemap("a"));
  print(zonemap("b"));
}
print(indexinfo("a").count);
`
	diags := check(t, src, nil)
	wantDiag(t, diags, "index-in-parallel", Warning, 2, 9)
	wantDiag(t, diags, "index-in-parallel", Warning, 3, 9)
	// indexinfo is read-only: no warning outside or inside PARALLEL.
	diags = check(t, "PARALLEL {\n  print(indexinfo(\"a\").count);\n}\n", nil)
	wantNoDiag(t, diags, "index-in-parallel")
}
