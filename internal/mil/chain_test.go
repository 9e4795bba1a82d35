package mil

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"cobra/internal/monet"
	"cobra/internal/obs"
)

// The differential test of the MIL roads over stored BATs: every
// access-path select/uselect and every fused chain must answer exactly
// what the operator-at-a-time road answers for the same statement with
// its stored BAT first copied into a VAR, which neither the chain
// matcher nor the access path ever sees.

// diffRows spans several morsels, past the access paths' threshold.
const diffRows = 3*monet.MorselSize + 123

// diffStore builds the fixture: clustered float and int streams with
// aligned partners, a NaN-bearing float stream, a string stream for
// the dictionary, a stream one row short and one under an oid head.
func diffStore(t *testing.T) *monet.Store {
	t.Helper()
	s := monet.NewStore()
	col := func(name string, head, tail monet.Type, n int, at func(i int) monet.Value) {
		b := monet.NewBATCap(head, tail, n)
		for i := 0; i < n; i++ {
			h := monet.VoidValue()
			if head == monet.OIDT {
				h = monet.NewOID(monet.OID(i))
			}
			b.MustInsert(h, at(i))
		}
		if err := s.Put(name, b); err != nil {
			t.Fatal(err)
		}
	}
	wave := func(i, f int) float64 {
		x := 2 * math.Pi * float64(i) / diffRows
		return 0.5 + 0.35*math.Sin(float64(f)*x+1) + 0.15*math.Sin(23*x+2)
	}
	col("f", monet.Void, monet.FloatT, diffRows, func(i int) monet.Value { return monet.NewFloat(wave(i, 5)) })
	col("g", monet.Void, monet.FloatT, diffRows, func(i int) monet.Value { return monet.NewFloat(wave(i, 3)) })
	col("i", monet.Void, monet.IntT, diffRows, func(i int) monet.Value { return monet.NewInt(int64(i * 1000 / diffRows)) })
	col("k", monet.Void, monet.IntT, diffRows, func(i int) monet.Value { return monet.NewInt(int64(i%97) - 40) })
	col("nan", monet.Void, monet.FloatT, diffRows, func(i int) monet.Value {
		if i%977 == 0 {
			return monet.NewFloat(math.NaN())
		}
		return monet.NewFloat(wave(i, 7))
	})
	col("s", monet.Void, monet.StrT, diffRows, func(i int) monet.Value { return monet.NewStr(fmt.Sprintf("label-%02d", i*40/diffRows)) })
	col("short", monet.Void, monet.FloatT, diffRows-1, func(i int) monet.Value { return monet.NewFloat(wave(i, 3)) })
	col("oidh", monet.OIDT, monet.FloatT, diffRows, func(i int) monet.Value { return monet.NewFloat(wave(i, 5)) })
	return s
}

// traced runs src under a fresh trace root and returns its result and
// the monet.select spans the run recorded under mil.exec.
func traced(in *Interp, src string) (Value, error, []*obs.Span) {
	root := obs.StartTrace("test")
	v, err := in.ExecCtx(obs.ContextWithSpan(context.Background(), root), src)
	root.Finish()
	var sels []*obs.Span
	for _, exec := range root.Children() {
		for _, sp := range exec.Children() {
			if sp.Name() == "monet.select" {
				sels = append(sels, sp)
			}
		}
	}
	return v, err, sels
}

// innermost strips the interpreter's position wrappers, which differ
// between a statement and its split form.
func innermost(err error) string {
	for errors.Unwrap(err) != nil {
		err = errors.Unwrap(err)
	}
	return err.Error()
}

// sameValue requires byte-identical answers, comparing a BAT row by row
// beyond the 16 rows its String renders.
func sameValue(t *testing.T, label string, got Value, gotErr error, want Value, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: err %v, operator road err %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if innermost(gotErr) != innermost(wantErr) {
			t.Fatalf("%s: err %q, operator road %q", label, innermost(gotErr), innermost(wantErr))
		}
		return
	}
	if got.String() != want.String() {
		t.Fatalf("%s:\n got %s\nwant %s", label, got, want)
	}
	if got.IsBAT() {
		for r := 0; r < got.BAT.Len(); r++ {
			if !monet.Equal(got.BAT.Head(r), want.BAT.Head(r)) || !monet.Equal(got.BAT.Tail(r), want.BAT.Tail(r)) {
				t.Fatalf("%s: row %d differs", label, r)
			}
		}
	}
}

// road names which kernel road the spans show: "fused" when a fused
// pipeline ran, "access" when only access-path selects ran, "" when
// no stored BAT was selected through the store, and "abandoned" when
// a select the store began reported neither.
func road(sels []*obs.Span) string {
	r := ""
	for _, sp := range sels {
		switch {
		case sp.Attr("fused") != "":
			return "fused"
		case sp.Attr("access") != "":
			r = "access"
		default:
			return "abandoned"
		}
	}
	return r
}

func TestMILRoadsMatchOperatorRoad(t *testing.T) {
	bands := map[string][][2]string{
		// straddling, covered, empty (out of domain), empty (inverted),
		// and bounds of another type (all-or-nothing).
		"f":    {{"0.4", "0.45"}, {"-1.0", "2.0"}, {"5.0", "6.0"}, {"0.7", "0.2"}, {"0", "1"}},
		"i":    {{"100", "199"}, {"-1", "1000"}, {"2000", "3000"}, {"500", "400"}},
		"nan":  {{"0.4", "0.45"}, {"-1.0", "2.0"}},
		"s":    {{`"label-05"`, `"label-09"`}, {`"zz"`, `"zzz"`}},
		"oidh": {{"0.4", "0.45"}},
	}
	points := map[string]string{"i": "42", "s": `"label-07"`, "f": "0.5"}
	partners := []string{"g", "k", "nan", "short", "oidh"}
	widths := []int{1, 2, 4}
	if testing.Short() {
		widths = []int{1, 4}
	}
	for _, w := range widths {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			prev := monet.SetDefaultPoolWorkers(w)
			defer monet.SetDefaultPoolWorkers(prev)
			in := NewInterp(diffStore(t))
			check := func(stmt, ref, wantRoad string) {
				t.Helper()
				got, gotErr, sels := traced(in, stmt)
				want, wantErr, refSels := traced(in, ref)
				sameValue(t, stmt, got, gotErr, want, wantErr)
				if r := road(refSels); r != "" {
					t.Fatalf("%s: the operator road took the %s road", ref, r)
				}
				if r := road(sels); r != wantRoad {
					t.Fatalf("%s: took the %q road, want %q", stmt, r, wantRoad)
				}
			}
			for n, bs := range bands {
				for _, b := range bs {
					sel := fmt.Sprintf("select(%s, %s)", b[0], b[1])
					for _, m := range []string{"select", "uselect"} {
						mb := strings.Replace(sel, "select", m, 1)
						check(fmt.Sprintf(`bat(%q).%s;`, n, mb), fmt.Sprintf(`VAR c := bat(%q).copy; c.%s;`, n, mb), "access")
						check(fmt.Sprintf(`bat(%q).%s.max;`, n, mb), fmt.Sprintf(`VAR c := bat(%q).copy; c.%s.max;`, n, mb), "access")
					}
					for _, op := range []string{"count", "sum", "avg"} {
						check(fmt.Sprintf(`bat(%q).%s.%s;`, n, sel, op), fmt.Sprintf(`VAR c := bat(%q).copy; c.%s.%s;`, n, sel, op), "fused")
						for _, m := range partners {
							stmt := fmt.Sprintf(`bat(%q).%s.mirror.join(bat(%q)).%s;`, n, sel, m, op)
							ref := fmt.Sprintf(`VAR c := bat(%q).copy; c.%s.mirror.join(bat(%q)).%s;`, n, sel, m, op)
							want := "fused"
							if m == "short" || m == "oidh" || n == "oidh" {
								want = "access" // misaligned: select on the access path, the rest operator-at-a-time
							}
							check(stmt, ref, want)
						}
					}
				}
			}
			for n, p := range points {
				for _, m := range []string{"select", "uselect"} {
					check(fmt.Sprintf(`bat(%q).%s(%s);`, n, m, p), fmt.Sprintf(`VAR c := bat(%q).copy; c.%s(%s);`, n, m, p), "access")
				}
			}
		})
	}
}

// TestMILSelectAfterAppendTakesOperatorRoad: a bat() value whose BAT
// the store has since replaced selects over the BAT it holds, not the
// store's successor, and never touches the store's index.
func TestMILSelectAfterAppendTakesOperatorRoad(t *testing.T) {
	s := diffStore(t)
	in := NewInterp(s)
	if _, err := in.Exec(`x := bat("i");`); err != nil {
		t.Fatal(err)
	}
	old, _ := s.Get("i")
	if err := s.Append("i", monet.VoidValue(), monet.NewInt(150)); err != nil {
		t.Fatal(err)
	}
	got, err, sels := traced(in, `x.select(100, 199);`)
	if err != nil {
		t.Fatal(err)
	}
	want := Value{BAT: old.Select(monet.NewInt(100), monet.NewInt(199))}
	sameValue(t, "select after append", got, nil, want, nil)
	if len(sels) != 0 {
		t.Fatalf("select over a replaced BAT recorded %d monet.select spans", len(sels))
	}
	info, _ := s.IndexInfo("i")
	if v, _ := info.Find(monet.NewStr("selects")); v.Str() != "0" {
		t.Fatalf("select over a replaced BAT planned on the store: selects = %s", v.Str())
	}
	// The statement form reads the successor, appended row included.
	v, err := in.Exec(`bat("i").select(100, 199).count;`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Atom.Int() != int64(want.BAT.Len()+1) {
		t.Fatalf("count over the successor = %v, want %d", v, want.BAT.Len()+1)
	}
}

// TestMILChainUnderProcNamedBat: a PROC named bat shadows the builtin,
// so the chain is the PROC's BAT, not the store's.
func TestMILChainUnderProcNamedBat(t *testing.T) {
	in := NewInterp(diffStore(t))
	if _, err := in.Exec(`PROC bat(str name) : BAT[void,dbl] := {
		VAR b := new(void, dbl);
		b.insert(nil, 0.25);
		b.insert(nil, 0.5);
		b.insert(nil, 2.5);
		RETURN b;
	}`); err != nil {
		t.Fatal(err)
	}
	for tail, want := range map[string]float64{".count;": 2, ".sum;": 0.75, `.mirror.join(bat("g")).avg;`: 0.375} {
		stmt := `bat("f").select(0.0, 1.0)` + tail
		got, err, sels := traced(in, stmt)
		ref, refErr := in.Exec(`VAR c := bat("f"); c.select(0.0, 1.0)` + tail)
		sameValue(t, stmt, got, err, ref, refErr)
		if err != nil || got.Atom.Float() != want {
			t.Fatalf("%s = %v (err %v), want %v over the PROC's BAT", stmt, got, err, want)
		}
		if r := road(sels); r != "" {
			t.Fatalf("%s took the %s road under a PROC named bat", stmt, r)
		}
	}
}

// TestMILRoadsConcurrentWithAppends runs the access-path select and
// the fused chains from several goroutines on one interpreter while
// the store appends in-range rows to the column they read: every count
// is the operator road's over some BAT the store held, and the join
// against the unappended partner never sees an appended row.
func TestMILRoadsConcurrentWithAppends(t *testing.T) {
	s := diffStore(t)
	in := NewInterp(s)
	base, err := in.Exec(`VAR c := bat("i").copy; RETURN c.select(100, 199).count;`)
	if err != nil {
		t.Fatal(err)
	}
	const appends = 40
	done := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for r := 0; r < 25; r++ {
				for _, src := range []string{
					`VAR x := bat("i"); RETURN x.select(100, 199).count;`,
					`RETURN bat("i").select(100, 199).count;`,
					`RETURN bat("i").select(100, 199).mirror.join(bat("k")).count;`,
				} {
					v, err := in.Exec(src)
					n := v.Atom.Int()
					switch {
					case err != nil:
						errs <- fmt.Errorf("%s: %v", src, err)
						return
					case strings.Contains(src, "join") && n != base.Atom.Int():
						errs <- fmt.Errorf("%s = %d, want %d", src, n, base.Atom.Int())
						return
					case n < base.Atom.Int() || n > base.Atom.Int()+appends:
						errs <- fmt.Errorf("%s = %d, outside [%d, %d]", src, n, base.Atom.Int(), base.Atom.Int()+appends)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	go func() {
		defer close(done)
		for a := 0; a < appends; a++ {
			if err := s.Append("i", monet.VoidValue(), monet.NewInt(150)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
