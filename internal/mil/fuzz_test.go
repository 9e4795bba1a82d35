package mil

import (
	"strings"
	"testing"

	"cobra/internal/monet"
)

// FuzzParse exercises the lexer and parser: any input must either
// parse or fail with an error — never panic, and errors must carry a
// position.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"VAR a := 1;",
		"VAR b := new(void, dbl);\nb.insert(nil, 0.5);\nprint(b.sum);",
		"PROC f(int x) : int := { RETURN x * 2; }\nprint(f(21));",
		"PARALLEL {\n  parEval.insert(\"a\", 0.9);\n  parEval.insert(\"b\", 0.7);\n}",
		"IF (a < 1) { print(a); } ELSE IF (a < 2) { print(-a); }",
		"WHILE (i < 10) { i := i + 1; }",
		"VAR s := bat(\"cobra/videos\").uselect(\"gp\").mirror.join(bat(\"x\"));",
		"# comment\nRETURN 1 + 2 * 3 / 4 % 5;",
		"VAR t : BAT[oid,dbl] := new(oid, dbl);",
		"((((((((1))))))))",
		"\"unterminated",
		"1.e-; VAR",
		"PROC p() := { PARALLEL { RETURN 1; } }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			if prog != nil {
				t.Fatalf("non-nil program alongside error %v", err)
			}
			if !strings.HasPrefix(err.Error(), "mil: ") {
				t.Fatalf("error without mil: position prefix: %v", err)
			}
			return
		}
		// Every node must report a position; walk the top level.
		for _, s := range prog.Stmts {
			if l, c := s.Pos(); l < 0 || c < 0 {
				t.Fatalf("negative position %d:%d", l, c)
			}
		}
	})
}

// fuzzStore holds two small aligned streams, "x" [void,dbl] and "y"
// [void,int], for the fuzzed programs' bat() calls.
func fuzzStore() *monet.Store {
	s := monet.NewStore()
	x := monet.NewBATCap(monet.Void, monet.FloatT, 64)
	y := monet.NewBATCap(monet.Void, monet.IntT, 64)
	for i := 0; i < 64; i++ {
		x.MustInsert(monet.VoidValue(), monet.NewFloat(float64(i)/64))
		y.MustInsert(monet.VoidValue(), monet.NewInt(int64(i%10)))
	}
	s.Put("x", x)
	s.Put("y", y)
	return s
}

// FuzzRun feeds parsed programs to the interpreter with a small step
// budget: evaluation must return a value or an error, never panic.
func FuzzRun(f *testing.F) {
	seeds := []string{
		"VAR a := 1; RETURN a + 1;",
		"VAR b := new(void, int);\nb.insert(nil, 3);\nRETURN b.sum;",
		"PROC f(int x) : int := { RETURN x; }\nRETURN f(7);",
		"RETURN 1 / 0;",
		"PARALLEL { print(1); print(2); }",
		// The fused chains, the access-path select and the read-only
		// bat() value.
		`RETURN bat("x").select(0.2, 0.6).count;`,
		`RETURN bat("y").select(1, 9).sum;`,
		`RETURN bat("x").select(0.2, 0.6).mirror.join(bat("y")).avg;`,
		`VAR s := bat("x").uselect(0.5); RETURN s.count;`,
		`bat("x").insert(oid(0), 9.5);`,
		`VAR b := bat("y").copy; b.insert(nil, 4); register("y", b); RETURN bat("y").select(4, 4).count;`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return // keep interpreter runs cheap
		}
		prog, err := Parse(src)
		if err != nil {
			return
		}
		in := NewInterp(fuzzStore())
		in.MaxSteps = 50000
		_, _ = in.Run(prog)
	})
}
