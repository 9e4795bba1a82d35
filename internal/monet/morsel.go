package monet

import (
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
	hPoolFilterLat = obs.H("monet.pool.filter.latency")
	hPoolFilterSpd = obs.H("monet.pool.filter.speedup")
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
