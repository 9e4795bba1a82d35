package monet

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

// naiveIdx is the reference result every access path must reproduce:
// the serial full scan under kernel Compare semantics.
func naiveIdx(b *BAT, lo, hi Value) []int {
	idx := make([]int, 0)
	for i := 0; i < b.Len(); i++ {
		t := b.Tail(i)
		if Compare(t, lo) >= 0 && Compare(t, hi) <= 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

func sameIdx(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d positions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// modIntBAT builds a [void,int] BAT with tails cycling over [0, mod).
func modIntBAT(n, mod int) *BAT {
	b := NewBATCap(Void, IntT, n)
	for i := 0; i < n; i++ {
		b.MustInsert(VoidValue(), NewInt(int64(i%mod)))
	}
	return b
}

// clusteredIntBAT builds a [void,int] BAT with ascending tails in
// [0, vals): the layout zone maps reward.
func clusteredIntBAT(n, vals int) *BAT {
	b := NewBATCap(Void, IntT, n)
	for i := 0; i < n; i++ {
		b.MustInsert(VoidValue(), NewInt(int64(i*vals/n)))
	}
	return b
}

func TestAdaptivePathProgression(t *testing.T) {
	s := NewStore()
	n := 5 * MorselSize
	s.Put("col", modIntBAT(n, 1000))
	lo, hi := NewInt(100), NewInt(199)
	want := naiveIdx(mustGet(t, s, "col"), lo, hi)
	wantPaths := []AccessPath{PathZoneMap, PathZoneMap, PathCrack, PathCrack}
	for q, wp := range wantPaths {
		idx, info, err := s.SelectPositions("col", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		sameIdx(t, idx, want)
		// Cyclic tails defeat pruning, so the zone-map rounds report
		// themselves as scans; the gate still graduates to cracking.
		if wp == PathCrack && info.Path != PathCrack {
			t.Fatalf("query %d: path %v, want crack", q, info.Path)
		}
		if wp == PathCrack && info.CrackPieces < 2 {
			t.Fatalf("query %d: %d pieces, want >= 2", q, info.CrackPieces)
		}
	}
}

func mustGet(t *testing.T, s *Store, name string) *BAT {
	t.Helper()
	b, err := s.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestZoneMapPrunesClusteredColumn(t *testing.T) {
	s := NewStore()
	n := 40 * MorselSize
	s.Put("col", clusteredIntBAT(n, 1000))
	lo, hi := NewInt(500), NewInt(509) // 1% of the value domain
	idx, info, err := s.SelectPositions("col", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sameIdx(t, idx, naiveIdx(mustGet(t, s, "col"), lo, hi))
	if info.Path != PathZoneMap {
		t.Fatalf("path %v, want zonemap", info.Path)
	}
	if info.MorselsTotal != numMorsels(n) {
		t.Fatalf("morsels %d, want %d", info.MorselsTotal, numMorsels(n))
	}
	if pruned := float64(info.MorselsPruned) / float64(info.MorselsTotal); pruned < 0.9 {
		t.Fatalf("pruned %.2f of morsels, want >= 0.90", pruned)
	}
}

func TestCrackConvergesOnRepeatedRanges(t *testing.T) {
	s := NewStore()
	n := 8 * MorselSize
	s.Put("col", modIntBAT(n, 1000))
	b := mustGet(t, s, "col")
	ranges := [][2]int64{{100, 199}, {100, 199}, {50, 149}, {700, 899}, {100, 199}, {0, 999}, {999, 0}}
	for round := 0; round < 3; round++ {
		for _, r := range ranges {
			lo, hi := NewInt(r[0]), NewInt(r[1])
			idx, info, err := s.SelectPositions("col", lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			sameIdx(t, idx, naiveIdx(b, lo, hi))
			if info.Path == PathCrack && info.CrackPieces < 2 {
				t.Fatalf("crack path with %d pieces", info.CrackPieces)
			}
		}
	}
	pieces, err := s.Crack("col")
	if err != nil {
		t.Fatal(err)
	}
	// Distinct crack bounds: 100, 200, 50, 150, 700, 900, 0, 1000 (as
	// boundary values); pieces stay bounded by the query bound count.
	if pieces < 4 || pieces > 16 {
		t.Fatalf("pieces = %d, want a small partition count", pieces)
	}
}

func TestCrackerExtremeBounds(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	s.Put("col", modIntBAT(n, 7))
	b := mustGet(t, s, "col")
	cases := [][2]Value{
		{NewInt(math.MinInt64), NewInt(math.MaxInt64)},
		{NewInt(3), NewInt(math.MaxInt64)},
		{NewInt(math.MinInt64), NewInt(3)},
		{NewInt(6), NewInt(6)},
		{NewInt(7), NewInt(100)}, // out of domain
	}
	if _, err := s.Crack("col"); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		idx, info, err := s.SelectPositions("col", c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if info.Path != PathCrack {
			t.Fatalf("bounds %v..%v: path %v, want crack", c[0], c[1], info.Path)
		}
		sameIdx(t, idx, naiveIdx(b, c[0], c[1]))
	}
}

func TestFloatCrackerStrictBounds(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	b := NewBATCap(Void, FloatT, n)
	for i := 0; i < n; i++ {
		b.MustInsert(VoidValue(), NewFloat(float64(i%100)/10))
	}
	s.Put("col", b)
	if _, err := s.Crack("col"); err != nil {
		t.Fatal(err)
	}
	cases := [][2]float64{
		{2.5, 7.5},
		{math.Nextafter(2.5, math.Inf(1)), math.Nextafter(7.5, math.Inf(-1))},
		{math.Inf(-1), 5},
		{5, math.Inf(1)},
		{math.Inf(-1), math.Inf(1)},
		{7.5, 2.5}, // empty
	}
	for _, c := range cases {
		lo, hi := NewFloat(c[0]), NewFloat(c[1])
		idx, info, err := s.SelectPositions("col", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if info.Path != PathCrack {
			t.Fatalf("bounds %v..%v: path %v, want crack", lo, hi, info.Path)
		}
		sameIdx(t, idx, naiveIdx(b, lo, hi))
	}
}

func TestDictAnswersStringSelects(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	classes := []string{"overtake", "pitstop", "crash", "start", "podium"}
	b := NewBATCap(Void, StrT, n)
	for i := 0; i < n; i++ {
		b.MustInsert(VoidValue(), NewStr(classes[i%len(classes)]))
	}
	s.Put("col", b)
	eq := NewStr("pitstop")
	// First select warms the gate, second runs the dictionary.
	if _, _, err := s.SelectPositions("col", eq, eq); err != nil {
		t.Fatal(err)
	}
	idx, info, err := s.SelectPositions("col", eq, eq)
	if err != nil {
		t.Fatal(err)
	}
	if info.Path != PathDict {
		t.Fatalf("path %v, want dict", info.Path)
	}
	if info.DictSize != len(classes) {
		t.Fatalf("dict size %d, want %d", info.DictSize, len(classes))
	}
	sameIdx(t, idx, naiveIdx(b, eq, eq))

	// Absent value: empty without touching rows.
	miss := NewStr("zzz-absent")
	idx, info, err = s.SelectPositions("col", miss, miss)
	if err != nil {
		t.Fatal(err)
	}
	if info.Path != PathDict || len(idx) != 0 {
		t.Fatalf("miss: path %v, %d rows", info.Path, len(idx))
	}

	// Range over strings runs on codes too.
	lo, hi := NewStr("crash"), NewStr("pitstop")
	idx, _, err = s.SelectPositions("col", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sameIdx(t, idx, naiveIdx(b, lo, hi))
}

func TestInvalidationOnMutation(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	s.Put("col", modIntBAT(n, 100))
	lo, hi := NewInt(10), NewInt(19)
	for i := 0; i < 4; i++ { // graduate to the cracker
		if _, _, err := s.SelectPositions("col", lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	epoch := s.Epoch("col")

	// Append: epoch bumps, next select sees the new row.
	if err := s.Append("col", VoidValue(), NewInt(15)); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch("col"); got <= epoch {
		t.Fatalf("epoch %d after append, want > %d", got, epoch)
	}
	idx, _, err := s.SelectPositions("col", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sameIdx(t, idx, naiveIdx(mustGet(t, s, "col"), lo, hi))
	if idx[len(idx)-1] != n {
		t.Fatalf("appended row %d missing from select (last=%d)", n, idx[len(idx)-1])
	}

	// Put: replacement column, fresh results.
	s.Put("col", modIntBAT(n, 10))
	idx, _, err = s.SelectPositions("col", NewInt(3), NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	sameIdx(t, idx, naiveIdx(mustGet(t, s, "col"), NewInt(3), NewInt(4)))

	// Drop: selects fail, epoch keeps rising for the name.
	before := s.Epoch("col")
	if err := s.Drop("col"); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch("col"); got <= before {
		t.Fatalf("epoch %d after drop, want > %d", got, before)
	}
	if _, _, err := s.SelectPositions("col", lo, hi); err == nil {
		t.Fatal("select after drop succeeded")
	}
}

func TestIndexesRebuildAfterSnapshotLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	s := NewStore()
	n := 3 * MorselSize
	s.Put("col", modIntBAT(n, 50))
	lo, hi := NewInt(10), NewInt(19)
	for i := 0; i < 4; i++ {
		if _, _, err := s.SelectPositions("col", lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	if restored.Epoch("col") == 0 {
		t.Fatal("restored BAT has epoch 0: recovery bypassed the epoch bump")
	}
	idx, _, err := restored.SelectPositions("col", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sameIdx(t, idx, naiveIdx(mustGet(t, restored, "col"), lo, hi))
}

func TestNaNColumnFallsBackToScan(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	b := NewBATCap(Void, FloatT, n)
	for i := 0; i < n; i++ {
		v := float64(i % 100)
		if i%977 == 0 {
			v = math.NaN()
		}
		b.MustInsert(VoidValue(), NewFloat(v))
	}
	s.Put("col", b)
	lo, hi := NewFloat(10), NewFloat(19)
	want := naiveIdx(b, lo, hi) // includes the NaN rows: Compare(NaN, x) == 0
	for q := 0; q < 5; q++ {
		idx, info, err := s.SelectPositions("col", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if info.Path != PathScan {
			t.Fatalf("query %d: path %v, want scan on NaN column", q, info.Path)
		}
		sameIdx(t, idx, want)
	}
	if _, err := s.Crack("col"); err == nil {
		t.Fatal("Crack succeeded on a NaN column")
	}
}

func TestMixedTypeBoundsFallBackToScan(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	s.Put("col", modIntBAT(n, 100))
	lo, hi := NewFloat(10), NewFloat(19) // float bounds on an int column
	for q := 0; q < 5; q++ {
		idx, info, err := s.SelectPositions("col", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if info.Path != PathScan {
			t.Fatalf("query %d: path %v, want scan for mixed-type bounds", q, info.Path)
		}
		sameIdx(t, idx, naiveIdx(mustGet(t, s, "col"), lo, hi))
	}
}

func TestPlanAccessHasNoSideEffects(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	s.Put("col", modIntBAT(n, 100))
	lo, hi := NewInt(10), NewInt(19)
	info, err := s.PlanAccess("col", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if info.Path != PathZoneMap {
		t.Fatalf("plan %v, want zonemap for a cold numeric column", info.Path)
	}
	ii, err := s.IndexInfo("col")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := ii.Find(NewStr("selects")); !ok || v.Str() != "0" {
		t.Fatalf("PlanAccess advanced the select counter: %v", v)
	}
	if v, ok := ii.Find(NewStr("zonemap")); !ok || v.Str() != "none" {
		t.Fatalf("PlanAccess built a zone map: %v", v)
	}
	// After real selects the plan graduates too.
	for i := 0; i < 3; i++ {
		if _, _, err := s.SelectPositions("col", lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	info, err = s.PlanAccess("col", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if info.Path != PathCrack {
		t.Fatalf("plan %v after repeated selects, want crack", info.Path)
	}
}

func TestSelectRangeShapes(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	s.Put("col", modIntBAT(n, 100))
	lo, hi := NewInt(10), NewInt(19)
	want := mustGet(t, s, "col").Select(lo, hi)
	got, _, err := s.SelectRange("col", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sameBAT(t, got, want)
}

// sameBAT checks two [head, tail] BATs row for row.
func sameBAT(t *testing.T, got, want *BAT) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("SelectRange %d rows, scan %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if !Equal(got.Head(i), want.Head(i)) || !Equal(got.Tail(i), want.Tail(i)) {
			t.Fatalf("row %d: [%v,%v] != [%v,%v]", i, got.Head(i), got.Tail(i), want.Head(i), want.Tail(i))
		}
	}
}

// TestSelectRangeGraduatesToCrack: repeating one range select through
// SelectRange graduates the column to the cracker by the fourth query,
// with every answer equal to a plain scan.
func TestSelectRangeGraduatesToCrack(t *testing.T) {
	s := NewStore()
	s.Put("col", modIntBAT(3*MorselSize, 1000))
	lo, hi := NewInt(100), NewInt(199)
	want := mustGet(t, s, "col").Select(lo, hi)
	var last *AccessInfo
	for q := 0; q < 4; q++ {
		got, info, err := s.SelectRange("col", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		sameBAT(t, got, want)
		last = info
	}
	if last.Path != PathCrack {
		t.Fatalf("4th repeated select path = %v, want crack", last.Path)
	}
}

// TestSelectRangeUsesDictForStrings: a repeated string equality select
// through SelectRange is answered by the dictionary.
func TestSelectRangeUsesDictForStrings(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	b := NewBATCap(Void, StrT, n)
	for i := 0; i < n; i++ {
		b.MustInsert(VoidValue(), NewStr(fmt.Sprintf("label-%02d", i%40)))
	}
	s.Put("col", b)
	eq := NewStr("label-05")
	want := b.Select(eq, eq)
	var last *AccessInfo
	for q := 0; q < 2; q++ {
		got, info, err := s.SelectRange("col", eq, eq)
		if err != nil {
			t.Fatal(err)
		}
		sameBAT(t, got, want)
		last = info
	}
	if last.Path != PathDict {
		t.Fatalf("repeated string select path = %v, want dict", last.Path)
	}
}

func TestIndexInfoReport(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	s.Put("col", modIntBAT(n, 100))
	if _, err := s.BuildZoneMap("col"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Crack("col"); err != nil {
		t.Fatal(err)
	}
	ii, err := s.IndexInfo("col")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "rows", "epoch", "selects", "zonemap", "crack", "dict", "unsafe"} {
		if _, ok := ii.Find(NewStr(key)); !ok {
			t.Fatalf("IndexInfo missing %q", key)
		}
	}
	if v, _ := ii.Find(NewStr("zonemap")); v.Str() == "none" {
		t.Fatal("zonemap reported none after BuildZoneMap")
	}
	if v, _ := ii.Find(NewStr("crack")); v.Str() == "none" {
		t.Fatal("crack reported none after Crack")
	}
	if _, err := s.IndexInfo("nope"); err == nil {
		t.Fatal("IndexInfo on a missing BAT succeeded")
	}
}
