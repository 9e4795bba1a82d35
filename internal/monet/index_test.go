package monet

import (
	"context"
	"errors"
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

// TestAdaptivePathProgression walks each column shape through the
// gate: a clustered numeric column is pruned by the zone map its first
// select builds, a cyclic one keeps scanning (the zone map prunes
// nothing), and a string column moves to the dictionary on its second
// select — every answer equal to the naive scan.
func TestAdaptivePathProgression(t *testing.T) {
	s := NewStore()
	n := 5 * MorselSize
	s.Put("clustered", clusteredIntBAT(n, 1000))
	s.Put("cyclic", modIntBAT(n, 1000))
	labels := NewBATCap(Void, StrT, n)
	for i := 0; i < n; i++ {
		labels.MustInsert(VoidValue(), NewStr(fmt.Sprintf("label-%02d", i%40)))
	}
	s.Put("labels", labels)
	for _, c := range []struct {
		name   string
		lo, hi Value
		paths  []AccessPath
	}{
		{"clustered", NewInt(100), NewInt(199), []AccessPath{PathZoneMap, PathZoneMap, PathZoneMap}},
		{"cyclic", NewInt(100), NewInt(199), []AccessPath{PathScan, PathScan, PathScan}},
		{"labels", NewStr("label-05"), NewStr("label-09"), []AccessPath{PathScan, PathDict, PathDict}},
	} {
		want := naiveIdx(mustGet(t, s, c.name), c.lo, c.hi)
		for q, wp := range c.paths {
			idx, info, err := s.SelectPositions(c.name, c.lo, c.hi)
			if err != nil {
				t.Fatal(err)
			}
			sameIdx(t, idx, want)
			if info.Path != wp {
				t.Fatalf("%s query %d: path %v, want %v", c.name, q, info.Path, wp)
			}
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

// TestZoneMapExtremeBounds: bounds at the int64 extremes and outside
// the column's domain meet the zone map's summaries without overflow.
func TestZoneMapExtremeBounds(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	s.Put("col", clusteredIntBAT(n, 7))
	b := mustGet(t, s, "col")
	cases := [][2]Value{
		{NewInt(math.MinInt64), NewInt(math.MaxInt64)},
		{NewInt(3), NewInt(math.MaxInt64)},
		{NewInt(math.MinInt64), NewInt(3)},
		{NewInt(6), NewInt(6)},
		{NewInt(7), NewInt(100)}, // out of domain
		{NewInt(math.MaxInt64), NewInt(math.MinInt64)},
	}
	for _, c := range cases {
		idx, info, err := s.SelectPositions("col", c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if info.Path == PathDict {
			t.Fatalf("bounds %v..%v: path %v on an int column", c[0], c[1], info.Path)
		}
		sameIdx(t, idx, naiveIdx(b, c[0], c[1]))
	}
}

// TestFloatZoneMapStrictBounds: float bounds one ulp inside a value,
// infinite bounds and an inverted range prune exactly as the scan
// compares.
func TestFloatZoneMapStrictBounds(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	b := NewBATCap(Void, FloatT, n)
	for i := 0; i < n; i++ {
		b.MustInsert(VoidValue(), NewFloat(float64(i*100/n)/10))
	}
	s.Put("col", b)
	cases := [][2]float64{
		{2.5, 7.5},
		{math.Nextafter(2.5, math.Inf(1)), math.Nextafter(7.5, math.Inf(-1))},
		{math.Inf(-1), 5},
		{5, math.Inf(1)},
		{math.Inf(-1), math.Inf(1)},
		{7.5, 2.5}, // empty
	}
	pruned := false
	for _, c := range cases {
		lo, hi := NewFloat(c[0]), NewFloat(c[1])
		idx, info, err := s.SelectPositions("col", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		pruned = pruned || info.MorselsPruned > 0
		sameIdx(t, idx, naiveIdx(b, lo, hi))
	}
	if !pruned {
		t.Fatal("no case was pruned by the zone map; the fixture no longer exercises it")
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
	for i := 0; i < 4; i++ { // build the zone map
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

// TestNaNColumnTakesZoneMap: a float column holding NaN is zone-mapped
// like any other, a zone holding a NaN is never covered, and a range
// with numeric bounds matches no NaN row.
func TestNaNColumnTakesZoneMap(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	b := NewBATCap(Void, FloatT, n)
	var want []int
	for i := 0; i < n; i++ {
		v := float64(i / ZoneSize % 40)
		if i%4999 == 0 {
			v = math.NaN()
		}
		if v >= 10 && v <= 19 {
			want = append(want, i)
		}
		b.MustInsert(VoidValue(), NewFloat(v))
	}
	s.Put("col", b)
	lo, hi := NewFloat(10), NewFloat(19)
	sameIdx(t, naiveIdx(b, lo, hi), want)
	for q := 0; q < 5; q++ {
		idx, info, err := s.SelectPositions("col", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if info.Path != PathZoneMap || info.ZonesCovered == 0 || info.ZonesScanned == 0 {
			t.Fatalf("query %d: %s, want the zone map to cover some zones and scan the NaN ones", q, info)
		}
		sameIdx(t, idx, want)
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
	s.Put("col", clusteredIntBAT(n, 100))
	labels := NewBATCap(Void, StrT, n)
	for i := 0; i < n; i++ {
		labels.MustInsert(VoidValue(), NewStr(fmt.Sprintf("label-%02d", i%40)))
	}
	s.Put("labels", labels)
	lo, hi := NewInt(10), NewInt(19)
	info, err := s.PlanAccess("col", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if info.Path != PathZoneMap || info.MorselsTotal != 0 {
		t.Fatalf("plan %s, want an unsummarized zonemap for a cold numeric column", info)
	}
	eq := NewStr("label-05")
	if info, err = s.PlanAccess("labels", eq, eq); err != nil || info.Path != PathScan {
		t.Fatalf("plan %v (err %v), want scan for a cold string column", info, err)
	}
	for _, name := range []string{"col", "labels"} {
		if got := indexState(t, s, name, "selects"); got != "0" {
			t.Fatalf("PlanAccess advanced the select counter of %s: %s", name, got)
		}
		for _, k := range []string{"zonemap", "dict"} {
			if got := indexState(t, s, name, k); got != "none" {
				t.Fatalf("PlanAccess built the %s of %s: %s", k, name, got)
			}
		}
	}
	// After one real select each, the plans report the road the next
	// select takes, with the zone map's prune counts.
	if _, _, err := s.SelectPositions("col", lo, hi); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SelectPositions("labels", eq, eq); err != nil {
		t.Fatal(err)
	}
	if info, err = s.PlanAccess("col", lo, hi); err != nil || info.Path != PathZoneMap || info.MorselsPruned == 0 {
		t.Fatalf("plan %v (err %v) after a select, want zonemap with pruned morsels", info, err)
	}
	if info, err = s.PlanAccess("labels", eq, eq); err != nil || info.Path != PathDict {
		t.Fatalf("plan %v (err %v) after a select, want dict", info, err)
	}
	if got := indexState(t, s, "labels", "dict"); got != "none" {
		t.Fatalf("PlanAccess built the dictionary: %s", got)
	}
}

// TestStringColumnNeverZoneMapped: string selects take the dictionary
// road, so a string column has no zone map to build or to plan with.
func TestStringColumnNeverZoneMapped(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	labels := NewBATCap(Void, StrT, n)
	for i := 0; i < n; i++ {
		labels.MustInsert(VoidValue(), NewStr(fmt.Sprintf("label-%02d", i/1000)))
	}
	s.Put("labels", labels)
	if _, err := s.BuildZoneMap("labels"); err == nil {
		t.Fatal("BuildZoneMap summarized a string column")
	}
	lo, hi := NewStr("label-03"), NewStr("label-07")
	for i := 0; i < 3; i++ {
		info, err := s.PlanAccess("labels", lo, hi)
		if err != nil || info.Path == PathZoneMap {
			t.Fatalf("plan %d: %v (err %v), want no zonemap for a string column", i, info, err)
		}
		if _, _, err := s.SelectPositions("labels", lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	if got := indexState(t, s, "labels", "zonemap"); got != "none" {
		t.Fatalf("string column zone map: %s", got)
	}
}

func TestSelectRangeShapes(t *testing.T) {
	s := NewStore()
	n := 3 * MorselSize
	s.Put("col", clusteredIntBAT(n, 100))
	b := mustGet(t, s, "col")
	ctx := context.Background()
	lo, hi := NewInt(10), NewInt(19)
	got, info, ok := s.SelectRange(ctx, "col", b, lo, hi, false)
	if !ok {
		t.Fatal("SelectRange refused the BAT the store holds")
	}
	sameBAT(t, got, b.Select(lo, hi))
	if info.Path != PathZoneMap {
		t.Fatalf("path %v, want zonemap", info.Path)
	}
	got, _, ok = s.SelectRange(ctx, "col", b, lo, hi, true)
	if !ok {
		t.Fatal("unary SelectRange refused the BAT the store holds")
	}
	if want := b.Uselect(lo, hi); got.String() != want.String() {
		t.Fatalf("unary SelectRange %s, Uselect %s", got, want)
	}
	sameBAT(t, got, b.Uselect(lo, hi))

	// Once the store holds a successor, the fetched BAT takes no
	// access path and plans nothing.
	if err := s.Append("col", VoidValue(), NewInt(15)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.SelectRange(ctx, "col", b, lo, hi, false); ok {
		t.Fatal("SelectRange answered for a BAT the store no longer holds")
	}
	if _, _, ok := s.SelectRange(ctx, "nope", b, lo, hi, false); ok {
		t.Fatal("SelectRange answered for a missing name")
	}
	// An append landing after SelectRange's first look is caught again
	// under the index lock.
	if _, _, err := s.planSelect("col", b, lo, hi); !errors.Is(err, errNotHeld) {
		t.Fatalf("planSelect over a BAT the store no longer holds: err %v", err)
	}
	if got := indexState(t, s, "col", "selects"); got != "0" {
		t.Fatalf("a refused SelectRange planned a select: selects = %s", got)
	}
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
		got, info, ok := s.SelectRange(context.Background(), "col", b, eq, eq, false)
		if !ok {
			t.Fatal("SelectRange refused the BAT the store holds")
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
	ii, err := s.IndexInfo("col")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "rows", "epoch", "selects", "zonemap", "dict"} {
		if _, ok := ii.Find(NewStr(key)); !ok {
			t.Fatalf("IndexInfo missing %q", key)
		}
	}
	if v, _ := ii.Find(NewStr("zonemap")); v.Str() == "none" {
		t.Fatal("zonemap reported none after BuildZoneMap")
	}
	if _, err := s.IndexInfo("nope"); err == nil {
		t.Fatal("IndexInfo on a missing BAT succeeded")
	}
}
