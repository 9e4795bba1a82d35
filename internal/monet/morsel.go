package monet

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"cobra/internal/obs"
)

// Per-operator parallel-execution histograms. Latency is the wall time
// of the fan-out; speedup is busy-time/wall-time observed in milli-×
// units (2000 = 2× parallel speedup), so STATS can report how much the
// morsel scheduler actually buys per operator family.
var (
	hPoolSelectLat = obs.H("monet.pool.select.latency")
	hPoolSelectSpd = obs.H("monet.pool.select.speedup")
	hPoolJoinLat   = obs.H("monet.pool.join.latency")
	hPoolJoinSpd   = obs.H("monet.pool.join.speedup")
	hPoolAggLat    = obs.H("monet.pool.aggregate.latency")
	hPoolAggSpd    = obs.H("monet.pool.aggregate.speedup")
)

// numMorsels returns how many fixed-size morsels cover n rows.
func numMorsels(n int) int { return (n + MorselSize - 1) / MorselSize }

// maxMorselSpans caps how many per-morsel child spans one fan-out
// records into a trace. All morsels still accumulate into the trace's
// shared Resources; the cap only bounds span-tree detail so retained
// traces (ring, slow log) stay small for huge scans.
const maxMorselSpans = 8

// runMorsels splits [0, n) into MorselSize chunks and runs fn for each
// on the pool, blocking until all finish. fn receives the morsel index
// m and its row range [lo, hi); morsel indices are dense, so callers
// collect per-morsel partial state in an nm-sized slice and merge it in
// morsel order — that merge order is what keeps parallel operators
// bit-identical to their serial paths regardless of worker count.
func runMorsels(p *Pool, n int, lat, spd *obs.Histogram, fn func(m, lo, hi int)) {
	runMorselSet(p, morselSet{n: n}, lat, spd, nil, fn)
}

// runMorselSet is the kernel's one morsel fan-out: it runs fn for the
// k-th visited morsel of ms and its row range [lo, hi), inline and in
// order when p is nil, else as one pool task per morsel, blocking until
// all finish. Under a trace span each task records its queue wait
// (submit → worker pickup) and run time into the trace's shared
// Resources, and the first maxMorselSpans morsels additionally get
// child spans under sp. Morsel child spans are created at submit time,
// in morsel order, so the parent's child list is deterministic
// regardless of worker scheduling; the timing attrs are filled in when
// the task runs. A nil sp skips all span work and the extra per-morsel
// clock read.
func runMorselSet(p *Pool, ms morselSet, lat, spd *obs.Histogram, sp *obs.Span, fn func(k, lo, hi int)) {
	nm := ms.slots()
	if p == nil || nm <= 1 {
		for k := 0; k < nm; k++ {
			lo, hi := ms.rowRange(k)
			fn(k, lo, hi)
		}
		return
	}
	cPoolMorsels.Add(int64(nm))
	res := sp.Resources()
	start := time.Now()
	var busy atomic.Int64
	b := p.Batch()
	for k := 0; k < nm; k++ {
		k := k
		lo, hi := ms.rowRange(k)
		var msp *obs.Span
		if sp != nil && k < maxMorselSpans {
			msp = sp.StartChild("monet.morsel")
			msp.SetAttr("morsel", strconv.Itoa(lo/MorselSize))
			msp.SetAttr("rows", strconv.Itoa(hi-lo))
		}
		var submitted time.Time
		if sp != nil {
			submitted = time.Now()
		}
		//cobravet:allow allochot // one closure per morsel IS the fan-out unit; bounded by morsel count, not rows
		b.Submit(func() {
			t0 := time.Now()
			fn(k, lo, hi)
			run := time.Since(t0)
			busy.Add(int64(run))
			if sp == nil {
				return
			}
			wait := max(t0.Sub(submitted), 0)
			res.AddMorsel(wait, run)
			if msp != nil {
				msp.SetAttr("queue_wait", obs.FormatDuration(wait))
				msp.SetAttr("run", obs.FormatDuration(run))
				msp.Finish()
			}
		})
	}
	b.Wait()
	wall := int64(time.Since(start))
	if lat != nil {
		lat.ObserveNs(wall)
	}
	if spd != nil && wall > 0 {
		spd.ObserveNs(busy.Load() * 1000 / wall)
	}
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed integer
// hash used to route numeric join keys to shards.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv1a hashes a string with 64-bit FNV-1a; strings and blobs route to
// shards by content, matching the equality the hash table uses.
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// hashKey routes a value to a hash-table shard. Keys that compare
// equal must hash equal, so -0.0 is normalized to +0.0 before its bit
// pattern is hashed.
func hashKey(v Value) uint64 {
	switch v.Typ {
	case OIDT, IntT, BoolT:
		return splitmix64(uint64(v.Int()))
	case FloatT:
		f := v.Float()
		if f == 0 {
			f = 0 // collapses -0.0 onto +0.0
		}
		return splitmix64(math.Float64bits(f))
	case StrT:
		return fnv1a(v.Str())
	case BlobT:
		return fnv1a(string(v.Blob()))
	}
	return 0
}

// hashIndex is the lookup contract shared by the serial hashTable and
// the sharded parallel build, so probe loops are agnostic to which
// build produced the index.
type hashIndex interface {
	lookup(v Value) []int
}

// shardedHash is a hash index built morsel-parallel as a power-of-two
// array of independent hashTable shards; a key lives in exactly the
// shard selected by its hash, so lookups touch one shard and per-key
// position lists keep the serial build's ascending order.
type shardedHash struct {
	shards []hashIndex
	mask   uint64
}

func (s *shardedHash) lookup(v Value) []int {
	return s.shards[hashKey(v)&s.mask].lookup(v)
}

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// buildHashIndex builds a position index over c, fanning the build out
// over the pool when the column is large enough.
func buildHashIndex(c Column) hashIndex {
	p, ok := poolFor(c.Len())
	if !ok {
		return buildHash(c)
	}
	return buildHashPar(p, c)
}

// buildHashPar builds a sharded hash index in two morsel-parallel
// phases: first each morsel routes its positions to per-shard lists,
// then one task per shard inserts that shard's positions scanning the
// route lists in morsel order. The morsel-ordered second phase is what
// keeps every per-key position list identical to the serial build.
func buildHashPar(p *Pool, c Column) *shardedHash {
	n := c.Len()
	nShards := nextPow2(2 * p.Workers())
	sh := &shardedHash{shards: make([]hashIndex, nShards), mask: uint64(nShards - 1)}
	routes := make([][][]int, numMorsels(n))
	runMorsels(p, n, nil, nil, func(m, lo, hi int) {
		// Count-then-fill radix partition: hash each position once into
		// arena scratch, take per-shard counts, then carve one fresh
		// backing buffer into exact per-shard lists — only the route
		// lists (which phase two still needs) are allocated, and
		// positions stay ascending within each shard (the invariant the
		// ordered phase-two insert needs).
		rows := hi - lo
		a := GetArena()
		hs := a.Int64s(rows)
		counts := a.Ints(nShards)
		for s := range counts {
			counts[s] = 0
		}
		for i := lo; i < hi; i++ {
			s := hashKey(c.Get(i)) & sh.mask
			hs[i-lo] = int64(s)
			counts[s]++
		}
		buf := make([]int, rows)
		r := make([][]int, nShards)
		off := 0
		for s := 0; s < nShards; s++ {
			r[s] = buf[off : off+counts[s]]
			off += counts[s]
			counts[s] = 0 // becomes the shard's write cursor below
		}
		for i := lo; i < hi; i++ {
			s := hs[i-lo]
			r[s][counts[s]] = i
			counts[s]++
		}
		routes[m] = r
		PutArena(a)
	})
	keyAt := intReader(c)
	b := p.Batch()
	for s := 0; s < nShards; s++ {
		s := s
		//cobravet:allow allochot // one closure per shard is the phase-two fan-out unit; bounded by shard count
		b.Submit(func() {
			if keyAt != nil {
				total := 0
				for _, r := range routes {
					total += len(r[s])
				}
				sh.shards[s] = buildCompactInt(keyAt, total, func(visit func(i int)) {
					for _, r := range routes {
						for _, i := range r[s] {
							visit(i)
						}
					}
				})
				return
			}
			ht := newHashTable(c.Type(), n/nShards+1)
			for _, r := range routes {
				for _, i := range r[s] {
					ht.insert(c, i)
				}
			}
			sh.shards[s] = ht
		})
	}
	b.Wait()
	return sh
}
