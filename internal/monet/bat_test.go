package monet

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkIntBAT(t *testing.T, pairs ...int64) *BAT {
	t.Helper()
	if len(pairs)%2 != 0 {
		t.Fatal("pairs must be even")
	}
	b := NewBAT(OIDT, IntT)
	for i := 0; i < len(pairs); i += 2 {
		if err := b.Insert(NewOID(OID(pairs[i])), NewInt(pairs[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestInsertAndLen(t *testing.T) {
	b := mkIntBAT(t, 0, 10, 1, 20, 2, 30)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if got := b.Tail(1).Int(); got != 20 {
		t.Fatalf("Tail(1) = %d, want 20", got)
	}
}

func TestInsertTypeMismatch(t *testing.T) {
	b := NewBAT(OIDT, IntT)
	if err := b.Insert(NewOID(1), NewStr("x")); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v, want ErrTypeMismatch", err)
	}
	if err := b.Insert(NewInt(1), NewInt(1)); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("head err = %v, want ErrTypeMismatch", err)
	}
}

func TestReverseIsView(t *testing.T) {
	b := mkIntBAT(t, 0, 10, 1, 20)
	r := b.Reverse()
	if r.HeadType() != IntT || r.TailType() != OIDT {
		t.Fatalf("reversed types = [%v,%v]", r.HeadType(), r.TailType())
	}
	if got := r.Head(0).Int(); got != 10 {
		t.Fatalf("reversed Head(0) = %d, want 10", got)
	}
	// Double reverse restores the original association order.
	rr := r.Reverse()
	for i := 0; i < b.Len(); i++ {
		if !Equal(rr.Head(i), b.Head(i)) || !Equal(rr.Tail(i), b.Tail(i)) {
			t.Fatalf("double reverse mismatch at %d", i)
		}
	}
}

func TestMirrorAndMark(t *testing.T) {
	b := mkIntBAT(t, 5, 10, 6, 20)
	m := b.Mirror()
	if !Equal(m.Tail(0), NewOID(5)) {
		t.Fatalf("mirror tail = %v", m.Tail(0))
	}
	mk := b.Mark(100)
	if !Equal(mk.Tail(0), NewOID(100)) || !Equal(mk.Tail(1), NewOID(101)) {
		t.Fatalf("mark tails = %v, %v", mk.Tail(0), mk.Tail(1))
	}
}

func TestSelectRange(t *testing.T) {
	b := mkIntBAT(t, 0, 5, 1, 15, 2, 25, 3, 35)
	sel := b.Select(NewInt(10), NewInt(30))
	if sel.Len() != 2 {
		t.Fatalf("Select len = %d, want 2", sel.Len())
	}
	if sel.Head(0).OID() != 1 || sel.Head(1).OID() != 2 {
		t.Fatalf("Select heads = %v, %v", sel.Head(0), sel.Head(1))
	}
}

func TestSelectEqAndUselect(t *testing.T) {
	b := mkIntBAT(t, 0, 7, 1, 8, 2, 7)
	eq := b.SelectEq(NewInt(7))
	if eq.Len() != 2 {
		t.Fatalf("SelectEq len = %d, want 2", eq.Len())
	}
	u := b.Uselect(NewInt(7), NewInt(7))
	if u.Len() != 2 || u.TailType() != Void {
		t.Fatalf("Uselect = %v", u)
	}
}

func TestFilter(t *testing.T) {
	b := mkIntBAT(t, 0, 1, 1, 2, 2, 3, 3, 4)
	odd := b.Filter(func(_, tl Value) bool { return tl.Int()%2 == 1 })
	if odd.Len() != 2 {
		t.Fatalf("Filter len = %d, want 2", odd.Len())
	}
}

func TestJoin(t *testing.T) {
	// names: [oid, str], ages: [oid, int]; join names.reverse? Use
	// classic: left [oid,oid] pointing into right [oid,int].
	left := NewBAT(OIDT, OIDT)
	left.MustInsert(NewOID(0), NewOID(100))
	left.MustInsert(NewOID(1), NewOID(101))
	left.MustInsert(NewOID(2), NewOID(100))
	right := NewBAT(OIDT, IntT)
	right.MustInsert(NewOID(100), NewInt(42))
	right.MustInsert(NewOID(101), NewInt(43))
	j, err := left.Join(right)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 3 {
		t.Fatalf("Join len = %d, want 3", j.Len())
	}
	if got, _ := j.Find(NewOID(2)); got.Int() != 42 {
		t.Fatalf("join value for 2 = %v, want 42", got)
	}
}

func TestJoinTypeMismatch(t *testing.T) {
	a := NewBAT(OIDT, StrT)
	b := NewBAT(OIDT, IntT)
	if _, err := a.Join(b); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v, want ErrTypeMismatch", err)
	}
}

func TestSemijoinKDiff(t *testing.T) {
	b := mkIntBAT(t, 0, 10, 1, 20, 2, 30)
	keys := NewBAT(OIDT, Void)
	keys.MustInsert(NewOID(0), VoidValue())
	keys.MustInsert(NewOID(2), VoidValue())
	sj, err := b.Semijoin(keys)
	if err != nil {
		t.Fatal(err)
	}
	if sj.Len() != 2 || sj.Head(1).OID() != 2 {
		t.Fatalf("semijoin = %s", sj.Dump(10))
	}
	kd, err := b.KDiff(keys)
	if err != nil {
		t.Fatal(err)
	}
	if kd.Len() != 1 || kd.Head(0).OID() != 1 {
		t.Fatalf("kdiff = %s", kd.Dump(10))
	}
}

func TestKUnion(t *testing.T) {
	a := mkIntBAT(t, 0, 1)
	b := mkIntBAT(t, 1, 2)
	u, err := a.KUnion(b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2 {
		t.Fatalf("kunion len = %d", u.Len())
	}
	// Operands unchanged.
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("kunion mutated operand")
	}
}

func TestFindExists(t *testing.T) {
	b := mkIntBAT(t, 7, 70)
	v, ok := b.Find(NewOID(7))
	if !ok || v.Int() != 70 {
		t.Fatalf("Find = %v, %v", v, ok)
	}
	if _, ok := b.Find(NewOID(8)); ok {
		t.Fatal("Find(8) should miss")
	}
	if !b.Exists(NewOID(7)) || b.Exists(NewOID(8)) {
		t.Fatal("Exists wrong")
	}
}

func TestSortTailHead(t *testing.T) {
	b := mkIntBAT(t, 2, 30, 0, 10, 1, 20)
	st := b.SortTail()
	for i := 1; i < st.Len(); i++ {
		if Compare(st.Tail(i-1), st.Tail(i)) > 0 {
			t.Fatal("SortTail not ascending")
		}
	}
	sh := b.SortHead()
	for i := 1; i < sh.Len(); i++ {
		if Compare(sh.Head(i-1), sh.Head(i)) > 0 {
			t.Fatal("SortHead not ascending")
		}
	}
}

func TestAggregates(t *testing.T) {
	b := mkIntBAT(t, 0, 1, 1, 2, 2, 3, 3, 4)
	if s, _ := b.Sum(); s != 10 {
		t.Fatalf("Sum = %v", s)
	}
	if a, _ := b.Avg(); a != 2.5 {
		t.Fatalf("Avg = %v", a)
	}
	if m, _ := b.Max(); m.Int() != 4 {
		t.Fatalf("Max = %v", m)
	}
	if m, _ := b.Min(); m.Int() != 1 {
		t.Fatalf("Min = %v", m)
	}
	if am, _ := b.ArgMax(); am.OID() != 3 {
		t.Fatalf("ArgMax = %v", am)
	}
	if am, _ := b.ArgMin(); am.OID() != 0 {
		t.Fatalf("ArgMin = %v", am)
	}
}

func TestAggregateEmptyAndErrors(t *testing.T) {
	e := NewBAT(OIDT, IntT)
	if _, ok := e.Max(); ok {
		t.Fatal("Max of empty should report !ok")
	}
	if _, ok := e.ArgMax(); ok {
		t.Fatal("ArgMax of empty should report !ok")
	}
	s := NewBAT(OIDT, StrT)
	s.MustInsert(NewOID(0), NewStr("x"))
	if _, err := s.Sum(); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Sum over str err = %v", err)
	}
}

func TestGroupedAggregates(t *testing.T) {
	// [group, value]
	b := NewBAT(IntT, IntT)
	for _, p := range [][2]int64{{1, 10}, {1, 20}, {2, 5}, {2, 15}, {2, 10}} {
		b.MustInsert(NewInt(p[0]), NewInt(p[1]))
	}
	gc, _ := b.GroupCount()
	if v, _ := gc.Find(NewInt(2)); v.Int() != 3 {
		t.Fatalf("GroupCount(2) = %v", v)
	}
}

func TestHistogram(t *testing.T) {
	b := NewBAT(OIDT, StrT)
	for i, s := range []string{"x", "y", "x", "x"} {
		b.MustInsert(NewOID(OID(i)), NewStr(s))
	}
	h := b.Histogram()
	if v, _ := h.Find(NewStr("x")); v.Int() != 3 {
		t.Fatalf("Histogram(x) = %v", v)
	}
}

func TestVoidHead(t *testing.T) {
	b := NewBAT(Void, FloatT)
	for i := 0; i < 5; i++ {
		b.MustInsert(VoidValue(), NewFloat(float64(i)*1.5))
	}
	if b.Len() != 5 {
		t.Fatalf("void head len = %d", b.Len())
	}
	if b.Head(3).OID() != 3 {
		t.Fatalf("void head value = %v", b.Head(3))
	}
	sel := b.Select(NewFloat(1.0), NewFloat(4.0))
	if sel.Len() != 2 {
		t.Fatalf("select over void-head = %d", sel.Len())
	}
}

func TestSliceAndClone(t *testing.T) {
	b := mkIntBAT(t, 0, 1, 1, 2, 2, 3)
	s := b.Slice(1, 3)
	if s.Len() != 2 || s.Tail(0).Int() != 2 {
		t.Fatalf("slice = %s", s.Dump(10))
	}
	c := b.Clone()
	c.MustInsert(NewOID(9), NewInt(9))
	if b.Len() != 3 {
		t.Fatal("clone aliases original")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	types := []struct {
		name string
		mk   func() *BAT
	}{
		{"oid-int", func() *BAT { return mkIntBAT(t, 0, 1, 1, -5, 2, 1<<40) }},
		{"oid-str", func() *BAT {
			b := NewBAT(OIDT, StrT)
			b.MustInsert(NewOID(0), NewStr("héllo"))
			b.MustInsert(NewOID(1), NewStr(""))
			return b
		}},
		{"void-dbl", func() *BAT {
			b := NewBAT(Void, FloatT)
			b.MustInsert(VoidValue(), NewFloat(3.14))
			b.MustInsert(VoidValue(), NewFloat(-0.5))
			return b
		}},
		{"int-bool", func() *BAT {
			b := NewBAT(IntT, BoolT)
			b.MustInsert(NewInt(1), NewBool(true))
			b.MustInsert(NewInt(2), NewBool(false))
			return b
		}},
	}
	for _, tc := range types {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mk()
			var buf bytes.Buffer
			if _, err := b.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadBAT(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != b.Len() {
				t.Fatalf("len = %d, want %d", got.Len(), b.Len())
			}
			for i := 0; i < b.Len(); i++ {
				if !Equal(got.Head(i), b.Head(i)) && b.HeadType() != Void {
					t.Fatalf("head %d mismatch: %v vs %v", i, got.Head(i), b.Head(i))
				}
				if !Equal(got.Tail(i), b.Tail(i)) {
					t.Fatalf("tail %d mismatch: %v vs %v", i, got.Tail(i), b.Tail(i))
				}
			}
		})
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	s.Put("features/ste", mkIntBAT(t, 0, 1, 1, 2))
	s.Put("weird name:with/chars", mkIntBAT(t, 0, 9))
	if err := s.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("loaded %d BATs, want 2", s2.Len())
	}
	b, err := s2.Get("weird name:with/chars")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Find(NewOID(0)); v.Int() != 9 {
		t.Fatalf("loaded value = %v", v)
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if _, err := s.Get("nope"); !errors.Is(err, ErrNoSuchBAT) {
		t.Fatalf("err = %v", err)
	}
	s.Put("a", NewBAT(OIDT, IntT))
	s.Put("b", NewBAT(OIDT, IntT))
	if !s.Has("a") || s.Has("c") {
		t.Fatal("Has wrong")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" {
		t.Fatalf("Names = %v", names)
	}
	s.Drop("a")
	if s.Has("a") || s.Len() != 1 {
		t.Fatal("Drop failed")
	}
}

// Property: join of b with the mirror of its reversed tail values is b itself.
func TestJoinMirrorProperty(t *testing.T) {
	f := func(vals []int64) bool {
		b := NewBAT(OIDT, IntT)
		for i, v := range vals {
			b.MustInsert(NewOID(OID(i)), NewInt(v%100))
		}
		// mirror over int domain present in b's tails
		dom := b.Reverse().Mirror() // [int,int]
		j, err := b.Join(dom)
		if err != nil {
			return false
		}
		if j.Len() < b.Len() {
			return false
		}
		// every original pair appears
		for i := 0; i < b.Len(); i++ {
			if v, ok := j.Find(b.Head(i)); !ok || v.Typ != IntT {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Select(lo,hi) returns exactly the rows whose tails are in range.
func TestSelectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		n := int(seed%50) + 1
		if n < 0 {
			n = -n + 1
		}
		b := NewBAT(OIDT, IntT)
		for i := 0; i < n; i++ {
			b.MustInsert(NewOID(OID(i)), NewInt(rng.Int63n(100)))
		}
		lo, hi := rng.Int63n(100), rng.Int63n(100)
		if lo > hi {
			lo, hi = hi, lo
		}
		sel := b.Select(NewInt(lo), NewInt(hi))
		want := 0
		for i := 0; i < b.Len(); i++ {
			v := b.Tail(i).Int()
			if v >= lo && v <= hi {
				want++
			}
		}
		return sel.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips arbitrary string BATs.
func TestSerializeStringProperty(t *testing.T) {
	f := func(ss []string) bool {
		b := NewBAT(Void, StrT)
		for _, s := range ss {
			b.MustInsert(VoidValue(), NewStr(s))
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadBAT(&buf)
		if err != nil || got.Len() != b.Len() {
			return false
		}
		for i := range ss {
			if got.Tail(i).Str() != ss[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func mkFloatBAT(vals ...float64) *BAT {
	b := NewBAT(Void, FloatT)
	for _, v := range vals {
		b.MustInsert(VoidValue(), NewFloat(v))
	}
	return b
}

func TestCalcBinary(t *testing.T) {
	a := mkFloatBAT(1, 2, 3)
	b := mkFloatBAT(4, 5, 6)
	cases := map[string][3]float64{
		"+":   {5, 7, 9},
		"-":   {-3, -3, -3},
		"*":   {4, 10, 18},
		"min": {1, 2, 3},
		"max": {4, 5, 6},
	}
	for op, want := range cases {
		got, err := CalcBinary(a, b, op)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got.Tail(i).Float() != want[i] {
				t.Fatalf("%s[%d] = %v, want %v", op, i, got.Tail(i), want[i])
			}
		}
	}
	div, err := CalcBinary(a, mkFloatBAT(2, 0, 3), "/")
	if err != nil {
		t.Fatal(err)
	}
	if div.Tail(0).Float() != 0.5 || !math.IsNaN(div.Tail(1).Float()) {
		t.Fatalf("div = %v %v", div.Tail(0), div.Tail(1))
	}
	if _, err := CalcBinary(a, mkFloatBAT(1), "+"); err == nil {
		t.Fatal("misaligned accepted")
	}
	if _, err := CalcBinary(a, b, "pow"); err == nil {
		t.Fatal("unknown op accepted")
	}
	s := NewBAT(Void, StrT)
	s.MustInsert(VoidValue(), NewStr("x"))
	if _, err := CalcBinary(s, s, "+"); err == nil {
		t.Fatal("string calc accepted")
	}
}

func TestCalcScaleClamp(t *testing.T) {
	b := mkFloatBAT(0, 0.5, 1)
	scaled, err := CalcScale(b, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Tail(2).Float() != 3 {
		t.Fatalf("scaled = %v", scaled.Tail(2))
	}
	clamped, err := CalcClamp(scaled, 1.5, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Tail(0).Float() != 1.5 || clamped.Tail(2).Float() != 2.5 {
		t.Fatalf("clamped = %s", clamped.Dump(5))
	}
	if _, err := CalcClamp(b, 2, 1); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

func TestCalcThreshold(t *testing.T) {
	b := mkFloatBAT(0.2, 0.6, 0.5)
	got, err := CalcThreshold(b, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Tail(1).Bool() || got.Tail(0).Bool() || got.Tail(2).Bool() {
		t.Fatalf("threshold = %s", got.Dump(5))
	}
}

func TestCalcMovingAvg(t *testing.T) {
	b := mkFloatBAT(1, 2, 3, 4)
	got, err := CalcMovingAvg(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1.5, 2.5, 3.5}
	for i := range want {
		if math.Abs(got.Tail(i).Float()-want[i]) > 1e-12 {
			t.Fatalf("mavg[%d] = %v, want %v", i, got.Tail(i), want[i])
		}
	}
	if _, err := CalcMovingAvg(b, 0); err == nil {
		t.Fatal("window 0 accepted")
	}
}

// TestVoidHeadMaterialization guards the void-head identity bug: ops
// that build outputs by insertion must materialize real OIDs rather
// than recounting a dense sequence.
func TestVoidHeadMaterialization(t *testing.T) {
	b := NewBAT(Void, IntT)
	for i := 0; i < 6; i++ {
		b.MustInsert(VoidValue(), NewInt(int64(i*10)))
	}
	// Uselect keeps sparse row ids.
	keys := b.Uselect(NewInt(30), NewInt(50))
	if keys.HeadType() != OIDT {
		t.Fatalf("uselect head type = %v", keys.HeadType())
	}
	if keys.Len() != 3 || keys.Head(0).OID() != 3 || keys.Head(2).OID() != 5 {
		t.Fatalf("uselect keys = %s", keys.Dump(10))
	}
	// Semijoin of a void-headed BAT against those keys returns the
	// right rows, not the first len(keys) rows.
	sel, err := b.Semijoin(keys)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Len() != 3 || sel.Tail(0).Int() != 30 {
		t.Fatalf("semijoin = %s", sel.Dump(10))
	}
	// Mark keeps head identities.
	mk := b.Slice(2, 4).Mark(0)
	if mk.Head(0).OID() != 2 {
		t.Fatalf("mark head = %v", mk.Head(0))
	}
	// Join of a void-headed left operand keeps row ids.
	right := NewBAT(IntT, StrT)
	right.MustInsert(NewInt(40), NewStr("forty"))
	j, err := b.Join(right)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 || j.Head(0).OID() != 4 {
		t.Fatalf("join = %s", j.Dump(10))
	}
}

func TestStoreStats(t *testing.T) {
	s := NewStore()
	s.Put("cobra/videos", mkFloatBAT(1, 2, 3))
	s.Put("cobra/feature/x", mkFloatBAT(1, 2))
	s.Put("plain", mkFloatBAT(1))
	st := s.Stats()
	if st.BATs != 3 || st.BUNs != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByPrefix["cobra"] != 5 || st.ByPrefix["plain"] != 1 {
		t.Fatalf("prefixes = %v", st.ByPrefix)
	}
}
