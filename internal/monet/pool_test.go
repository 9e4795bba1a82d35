package monet

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// withWorkers runs fn with the shared pool resized to width, restoring
// the previous width afterwards.
func withWorkers(t *testing.T, width int, fn func()) {
	t.Helper()
	prev := SetDefaultPoolWorkers(width)
	defer SetDefaultPoolWorkers(prev)
	fn()
}

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	b := p.Batch()
	for i := 0; i < 1000; i++ {
		b.Submit(func() { n.Add(1) })
	}
	b.Wait()
	if n.Load() != 1000 {
		t.Fatalf("ran %d tasks, want 1000", n.Load())
	}
}

func TestPoolNestedBatches(t *testing.T) {
	// A task that itself fans out onto the same pool must not deadlock,
	// even when the fan-out far exceeds the worker count.
	p := NewPool(2)
	defer p.Close()
	var n atomic.Int64
	outer := p.Batch()
	for i := 0; i < 8; i++ {
		outer.Submit(func() {
			inner := p.Batch()
			for j := 0; j < 50; j++ {
				inner.Submit(func() { n.Add(1) })
			}
			inner.Wait()
		})
	}
	outer.Wait()
	if n.Load() != 400 {
		t.Fatalf("ran %d nested tasks, want 400", n.Load())
	}
}

func TestPoolClosedRunsInline(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	var n atomic.Int64
	b := p.Batch()
	b.Submit(func() { n.Add(1) })
	b.Wait()
	if n.Load() != 1 {
		t.Fatal("closed pool dropped a task")
	}
}

func TestSetDefaultPoolWorkers(t *testing.T) {
	prev := SetDefaultPoolWorkers(3)
	defer SetDefaultPoolWorkers(prev)
	if got := DefaultPool().Workers(); got != 3 {
		t.Fatalf("workers = %d, want 3", got)
	}
	if p := SetDefaultPoolWorkers(5); p != 3 {
		t.Fatalf("previous width = %d, want 3", p)
	}
	if p := SetDefaultPoolWorkers(1 << 20); p != 5 {
		t.Fatalf("previous width = %d, want 5", p)
	}
	if got := DefaultPool().Workers(); got != maxPoolWorkers {
		t.Fatalf("width clamped to %d, want %d", got, maxPoolWorkers)
	}
}

// parallelTestBAT is large enough to clear ParallelThreshold with a
// row count that is deliberately not a multiple of MorselSize.
func parallelTestBAT(kind string) *BAT {
	n := ParallelThreshold + MorselSize/2 + 7
	switch kind {
	case "int":
		b := NewBATCap(Void, IntT, n)
		for i := 0; i < n; i++ {
			b.MustInsert(VoidValue(), NewInt(int64((i*2654435761)%1000)))
		}
		return b
	case "str":
		b := NewBATCap(Void, StrT, n)
		for i := 0; i < n; i++ {
			b.MustInsert(VoidValue(), NewStr(fmt.Sprintf("k%d", i%97)))
		}
		return b
	case "float":
		b := NewBATCap(Void, FloatT, n)
		for i := 0; i < n; i++ {
			b.MustInsert(VoidValue(), NewFloat(float64(i%513)))
		}
		return b
	}
	panic("unknown kind " + kind)
}

func requireBATsEqual(t *testing.T, got, want *BAT, op string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: len %d, want %d", op, got.Len(), want.Len())
	}
	if got.HeadType() != want.HeadType() || got.TailType() != want.TailType() {
		t.Fatalf("%s: type [%v,%v], want [%v,%v]", op,
			got.HeadType(), got.TailType(), want.HeadType(), want.TailType())
	}
	for i := 0; i < got.Len(); i++ {
		if !Equal(got.Head(i), want.Head(i)) || !Equal(got.Tail(i), want.Tail(i)) {
			t.Fatalf("%s: row %d = [%v,%v], want [%v,%v]", op, i,
				got.Head(i), got.Tail(i), want.Head(i), want.Tail(i))
		}
	}
}

func TestParallelSelectMatchesSerial(t *testing.T) {
	for _, kind := range []string{"int", "str", "float"} {
		b := parallelTestBAT(kind)
		var lo, hi Value
		switch kind {
		case "int":
			lo, hi = NewInt(100), NewInt(300)
		case "str":
			lo, hi = NewStr("k10"), NewStr("k50")
		case "float":
			lo, hi = NewFloat(5), NewFloat(400)
		}
		var serial, parallel, uSerial, uParallel *BAT
		withWorkers(t, 1, func() { serial = b.Select(lo, hi); uSerial = b.Uselect(lo, hi) })
		withWorkers(t, 4, func() { parallel = b.Select(lo, hi); uParallel = b.Uselect(lo, hi) })
		requireBATsEqual(t, parallel, serial, kind+" select")
		requireBATsEqual(t, uParallel, uSerial, kind+" uselect")
	}
}

func TestParallelJoinMatchesSerial(t *testing.T) {
	for _, kind := range []string{"int", "str", "float"} {
		probe := parallelTestBAT(kind)
		// Build side keyed by a distinct subset of the probe's tails.
		build := NewBAT(probe.TailType(), IntT)
		seen := map[string]bool{}
		for i := 0; i < probe.Len(); i += 3 {
			v := probe.Tail(i)
			if seen[v.String()] {
				continue
			}
			seen[v.String()] = true
			build.MustInsert(v, NewInt(int64(i)))
		}
		var serial, parallel *BAT
		var errS, errP error
		withWorkers(t, 1, func() { serial, errS = probe.Join(build) })
		withWorkers(t, 4, func() { parallel, errP = probe.Join(build) })
		if errS != nil || errP != nil {
			t.Fatalf("%s join: %v / %v", kind, errS, errP)
		}
		requireBATsEqual(t, parallel, serial, kind+" join")
	}
}

func TestParallelJoinDuplicateKeys(t *testing.T) {
	// Duplicate build keys: every probe row matches several positions
	// and the pair order must still equal the serial nested loop.
	probe := parallelTestBAT("int")
	build := NewBAT(IntT, StrT)
	for r := 0; r < 3; r++ {
		for k := 0; k < 1000; k += 5 {
			build.MustInsert(NewInt(int64(k)), NewStr(fmt.Sprintf("v%d-%d", k, r)))
		}
	}
	var serial, parallel *BAT
	var errS, errP error
	withWorkers(t, 1, func() { serial, errS = probe.Join(build) })
	withWorkers(t, 4, func() { parallel, errP = probe.Join(build) })
	if errS != nil || errP != nil {
		t.Fatalf("join: %v / %v", errS, errP)
	}
	requireBATsEqual(t, parallel, serial, "dup-key join")
	requireBATsEqual(t, serial, oracleJoin(probe, build), "dup-key join against the nested loop")
}

func TestParallelSemijoinKDiffMatchSerial(t *testing.T) {
	b := parallelTestBAT("int").Mark(0) // [oid-head, oid-tail], heads dense oids
	other := NewBAT(OIDT, Void)
	for i := 0; i < b.Len(); i += 2 {
		other.MustInsert(NewOID(OID(i)), VoidValue())
	}
	var semiS, semiP, diffS, diffP *BAT
	withWorkers(t, 1, func() {
		semiS, _ = b.Semijoin(other)
		diffS, _ = b.KDiff(other)
	})
	withWorkers(t, 4, func() {
		semiP, _ = b.Semijoin(other)
		diffP, _ = b.KDiff(other)
	})
	requireBATsEqual(t, semiP, semiS, "semijoin")
	requireBATsEqual(t, diffP, diffS, "kdiff")
}

func TestParallelAggregatesMatchSerial(t *testing.T) {
	b := parallelTestBAT("int")
	type agg struct {
		sum      float64
		max, min Value
		argmax   Value
		argmin   Value
	}
	measure := func() agg {
		var a agg
		a.sum, _ = b.Sum()
		a.max, _ = b.Max()
		a.min, _ = b.Min()
		a.argmax, _ = b.ArgMax()
		a.argmin, _ = b.ArgMin()
		return a
	}
	var serial, parallel agg
	withWorkers(t, 1, func() { serial = measure() })
	withWorkers(t, 4, func() { parallel = measure() })
	if parallel.sum != serial.sum {
		t.Fatalf("sum = %v, want %v", parallel.sum, serial.sum)
	}
	for _, pair := range [][2]Value{
		{parallel.max, serial.max}, {parallel.min, serial.min},
		{parallel.argmax, serial.argmax}, {parallel.argmin, serial.argmin},
	} {
		if !Equal(pair[0], pair[1]) {
			t.Fatalf("aggregate %v, want %v", pair[0], pair[1])
		}
	}
}

func TestParallelSumLargeFloatExact(t *testing.T) {
	// Integer-valued floats sum exactly, so parallel == serial bitwise.
	b := parallelTestBAT("float")
	var serial, parallel float64
	withWorkers(t, 1, func() { serial, _ = b.Sum() })
	withWorkers(t, 7, func() { parallel, _ = b.Sum() })
	if serial != parallel {
		t.Fatalf("parallel sum %v != serial %v", parallel, serial)
	}
}

// oracleJoin is the nested-loop equi-join: for each left row in order,
// every right row in order whose head equals the left tail.
func oracleJoin(l, r *BAT) *BAT {
	out := NewBAT(materialType(l.HeadType()), materialType(r.TailType()))
	heads := values(r.head)
	for i := 0; i < l.Len(); i++ {
		key := l.Tail(i)
		for j, h := range heads {
			if oracleCompare(key, h) == 0 {
				out.MustInsert(l.Head(i), r.Tail(j))
			}
		}
	}
	return out
}

// oracleHeadsIn is the nested-loop Semijoin (want) or KDiff (!want):
// the rows of l, in order, whose head does or does not equal a head of
// r.
func oracleHeadsIn(l, r *BAT, want bool) *BAT {
	out := NewBAT(materialType(l.HeadType()), materialType(l.TailType()))
	heads := values(r.head)
	for i := 0; i < l.Len(); i++ {
		key, found := l.Head(i), false
		for j := 0; j < len(heads) && !found; j++ {
			found = oracleCompare(key, heads[j]) == 0
		}
		if found == want {
			out.MustInsert(l.Head(i), l.Tail(i))
		}
	}
	return out
}

// values boxes every row of c once, so the nested loops above do not
// box the inner side per pair.
func values(c Column) []Value {
	vs := make([]Value, c.Len())
	for i := range vs {
		vs[i] = c.Get(i)
	}
	return vs
}

// joinKeys builds an n-row key column of typ for a key kind ("oid",
// "int", "flt" or "str"): a void column is its own dense OIDs, the
// others draw from 24 keys, so keys repeat on both sides, and miss
// moves them into a domain no other column draws from. Float keys
// include NaN, -0, +0 and ±Inf.
func joinKeys(rng *rand.Rand, typ Type, kind string, n int, miss bool) Column {
	if typ == Void {
		return &voidColumn{n: n}
	}
	c := NewColumnCap(typ, n)
	for i := 0; i < n; i++ {
		k := rng.Intn(24)
		if miss {
			k += 1000
		}
		switch kind {
		case "oid":
			if rng.Intn(50) == 0 {
				k = -1 - k // an OID past the int64 range, which no void head holds
			}
			c.Append(NewOID(OID(k)))
		case "int":
			c.Append(NewInt(int64(k - 12)))
		case "flt":
			specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
			f := float64(k) / 4
			if k < len(specials) {
				f = specials[k]
			}
			c.Append(NewFloat(f))
		default:
			c.Append(NewStr(fmt.Sprintf("k%02d", k)))
		}
	}
	return c
}

// TestJoinsMatchNestedLoopOracle checks Join, Semijoin and KDiff
// against nested-loop references at pool widths 1 and 2: void, oid,
// int, float and str keys with duplicates on both sides, empty sides, sides
// with no key in common, and probe sides past ParallelThreshold, where
// Semijoin and KDiff filter morsel-parallel. The payload columns are
// of random type, void included.
func TestJoinsMatchNestedLoopOracle(t *testing.T) {
	kinds := []struct {
		kind  string
		types []Type
	}{{"oid", []Type{Void, OIDT}}, {"int", []Type{IntT}}, {"flt", []Type{FloatT}}, {"str", []Type{StrT}}}
	payloads := []Type{Void, OIDT, IntT, StrT}
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			withWorkers(t, width, func() {
				rng := rand.New(rand.NewSource(int64(3700 + width)))
				for _, k := range kinds {
					for _, n := range []int{0, 1, 7, 300, ParallelThreshold + 123} {
						for _, m := range []int{0, 1, 5, 40} {
							if n > ParallelThreshold && m > 5 {
								continue // the oracles are n×m nested loops
							}
							lt := k.types[rng.Intn(len(k.types))]
							rt := k.types[rng.Intn(len(k.types))]
							left := &BAT{
								head: propColumnOf(rng, payloads[rng.Intn(len(payloads))], n, false),
								tail: joinKeys(rng, lt, k.kind, n, false),
							}
							right := &BAT{
								head: joinKeys(rng, rt, k.kind, m, rng.Intn(4) == 0),
								tail: propColumnOf(rng, payloads[rng.Intn(len(payloads))], m, false),
							}
							desc := fmt.Sprintf("%s keys [%v,%v] %d rows against [%v,%v] %d rows",
								k.kind, left.HeadType(), lt, n, rt, right.TailType(), m)
							got, err := left.Join(right)
							if err != nil {
								t.Fatalf("%s: join: %v", desc, err)
							}
							requireBATsEqual(t, got, oracleJoin(left, right), "join of "+desc)
							sel := left.Reverse()
							semi, err := sel.Semijoin(right)
							if err != nil {
								t.Fatalf("%s: semijoin: %v", desc, err)
							}
							requireBATsEqual(t, semi, oracleHeadsIn(sel, right, true), "semijoin of "+desc)
							diff, err := sel.KDiff(right)
							if err != nil {
								t.Fatalf("%s: kdiff: %v", desc, err)
							}
							requireBATsEqual(t, diff, oracleHeadsIn(sel, right, false), "kdiff of "+desc)
						}
					}
				}
			})
		})
	}
}

// groupKey is the oracle's notion of one group: same type and payload,
// every NaN one group, -0.0 with +0.0 (bit identity otherwise).
type groupKey struct {
	typ  Type
	i    int64
	bits uint64
	s    string
}

func oracleGroupKey(v Value) groupKey {
	k := groupKey{typ: v.Typ, i: v.I, s: v.S}
	switch v.Typ {
	case FloatT:
		switch {
		case v.F == 0:
			k.bits = 0
		case math.IsNaN(v.F):
			k.bits = math.Float64bits(math.NaN())
		default:
			k.bits = math.Float64bits(v.F)
		}
	case BlobT:
		k.s = string(v.B)
	}
	return k
}

// TestGroupCountMatchesFirstOccurrenceCount checks GroupCount over
// heads of every type against a map count that lists the groups in
// order of first occurrence.
func TestGroupCountMatchesFirstOccurrenceCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5100))
	for _, typ := range propTypes {
		for _, n := range []int{0, 1, 2, 63, 1000, ParallelThreshold + 5} {
			b := &BAT{head: propColumnOf(rng, typ, n, false), tail: &voidColumn{n: n}}
			slot := map[groupKey]int{}
			var heads []Value
			var counts []int64
			for i := 0; i < n; i++ {
				k := oracleGroupKey(b.Head(i))
				g, seen := slot[k]
				if !seen {
					g = len(heads)
					slot[k] = g
					heads = append(heads, b.Head(i))
					counts = append(counts, 0)
				}
				counts[g]++
			}
			got, err := b.GroupCount()
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != len(heads) || got.HeadType() != materialType(typ) || got.TailType() != IntT {
				t.Fatalf("%v heads, %d rows: %d groups [%v,%v], oracle %d [%v,int]",
					typ, n, got.Len(), got.HeadType(), got.TailType(), len(heads), materialType(typ))
			}
			for g := range heads {
				if oracleGroupKey(got.Head(g)) != oracleGroupKey(heads[g]) || got.Tail(g).Int() != counts[g] {
					t.Fatalf("%v heads, %d rows: group %d = [%v,%v], oracle [%v,%d]",
						typ, n, g, got.Head(g), got.Tail(g), heads[g], counts[g])
				}
			}
		}
	}
}
