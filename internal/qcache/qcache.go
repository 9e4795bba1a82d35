// Package qcache is the semantic query-result cache of the serving
// layer. Entries are keyed on the canonical form of a COQL statement
// and guarded by an epoch fingerprint — the per-name mutation epochs
// of every kernel BAT the query reads (its DepNames dependency set).
// A lookup whose fingerprint differs from the stored one invalidates
// the entry instead of serving it, so appends and live ingest can
// never surface stale rows: freshness is correct by construction, no
// invalidation callbacks needed.
//
// Why a fingerprint of all epochs and not their max: epochs are
// per-name counters, so after appending to dependency A of {A, B} the
// set's max can stay unchanged (B's larger epoch masks A's bump) and a
// max-keyed cache would serve stale rows. Equality over the full
// epoch vector has no such collision.
//
// The cache is bounded by a byte budget with LRU eviction, and the
// entries no lookup has hit yet by a count as well (2Q's A1in queue,
// Johnson & Shasha, VLDB 1994): a new entry waits in a FIFO of
// never-hit entries capped at maxFresh, its first hit promotes it to
// the LRU list, and eviction drains the never-hit FIFO first. A stream
// of never-repeating statements therefore holds at most maxFresh
// results instead of filling the byte budget, while a statement asked
// again before maxFresh newer results are stored hits as before.
// Concurrent identical misses collapse into one execution
// (single-flight): under a thundering herd of the same query, one
// request computes and the rest wait for its result. A result stores
// under the fingerprint observed BEFORE execution began — if a write
// raced the execution, the stored entry is already stale by its own
// fingerprint and the next lookup recomputes; the conservative
// direction, never the stale one.
package qcache

import (
	"container/list"
	"errors"
	"strconv"
	"sync"

	"cobra/internal/monet"
	"cobra/internal/obs"
)

// Cache metrics, exported under /metrics as cobra_qcache_*. The
// hits:misses ratio is the ramp signal for the qcache.enabled gate;
// invalidations track write pressure on cached queries.
var (
	cHits     = obs.C("qcache.hits")
	cMisses   = obs.C("qcache.misses")
	cEvict    = obs.C("qcache.evictions")
	cInval    = obs.C("qcache.invalidations")
	cShared   = obs.C("qcache.singleflight_waits")
	cOversize = obs.C("qcache.oversize_skips")
	gEntries  = obs.G("qcache.entries")
	gBytes    = obs.G("qcache.bytes")
)

// DefaultMaxBytes is the byte budget a zero-configured cache gets:
// enough for tens of thousands of typical result sets without
// mattering next to the BATs themselves.
const DefaultMaxBytes = 64 << 20

// maxFresh caps the entries no lookup has hit yet. It is sized from
// the adhoc_paper and kernel_scan benchmarks (docs/SERVING.md): larger
// caps held more memory without lowering latency, and a cap of 1 024
// ran the collector twice as often with its heap goal at the floor.
const maxFresh = 4096

// entryOverhead approximates the fixed per-entry bookkeeping cost
// (map slot, list element, headers) charged against the byte budget.
const entryOverhead = 128

// Fingerprint is the freshness key of one cached result: the epoch of
// every kernel BAT the query depends on, in DepNames order, rendered
// to a comparable string.
func Fingerprint(store *monet.Store, deps []string) string {
	epochs := store.Epochs(deps)
	// Epochs are small integers; decimal with a separator is compact
	// and collision-free for equality comparison.
	buf := make([]byte, 0, 8*len(epochs))
	for i, e := range epochs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(buf, e, 10)
	}
	return string(buf)
}

// errAborted is handed to collapsed waiters whose flight's exec
// panicked instead of returning.
var errAborted = errors.New("qcache: execution aborted")

// entry is one cached result set.
type entry struct {
	key   string
	fp    string
	lines []string
	bytes int64
	elem  *list.Element
	hit   bool // served at least once: on lru, else on fresh
}

// flight is one in-progress execution that concurrent identical
// misses wait on.
type flight struct {
	done  chan struct{}
	lines []string
	err   error
}

// Stats is a point-in-time snapshot of one cache's counters, the body
// of the CACHESTATS protocol verb.
type Stats struct {
	// Hits counts lookups served from a stored, fingerprint-fresh entry.
	Hits int64
	// Misses counts lookups that had to execute the query.
	Misses int64
	// SingleflightWaits counts lookups collapsed onto another
	// request's in-progress execution.
	SingleflightWaits int64
	// Evictions counts entries removed by the byte budget or the
	// never-hit cap.
	Evictions int64
	// Invalidations counts entries removed because a dependency epoch
	// moved (an append or ingest made them stale).
	Invalidations int64
	// Entries and Bytes are the current cache population and its charge
	// against MaxBytes.
	Entries, Bytes, MaxBytes int64
}

// Cache is a bounded, single-flight, epoch-validated result cache.
// It is safe for concurrent use. Result line slices handed out by Do
// are shared and must be treated as immutable by callers.
type Cache struct {
	mu      sync.Mutex
	maxB    int64
	entries map[string]*entry
	fresh   *list.List // never-hit entries, front = newest
	lru     *list.List // entries hit at least once, front = most recent
	flights map[string]*flight
	bytes   int64

	hits, misses, waits, evicts, invals int64
}

// New returns an empty cache bounded to maxBytes (DefaultMaxBytes
// when maxBytes <= 0).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxB:    maxBytes,
		entries: map[string]*entry{},
		fresh:   list.New(),
		lru:     list.New(),
		flights: map[string]*flight{},
	}
}

// Do serves the result for key at freshness fp: from the cache when a
// fresh entry exists, by waiting on an identical in-progress
// execution, or by running exec and storing its result under fp.
// hit reports whether exec was avoided. An exec error is returned to
// every collapsed waiter and nothing is stored.
func (c *Cache) Do(key, fp string, exec func() ([]string, error)) (lines []string, hit bool, err error) {
	fk := key + "\x00" + fp
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.fp == fp {
			if e.hit {
				c.lru.MoveToFront(e.elem)
			} else {
				c.fresh.Remove(e.elem)
				e.elem, e.hit = c.lru.PushFront(e), true
			}
			c.hits++
			lines = e.lines
			c.mu.Unlock()
			cHits.Inc()
			return lines, true, nil
		}
		// A dependency epoch moved since this entry was stored: the
		// entry can never be served again (epochs only advance), drop it.
		c.removeLocked(e)
		c.invals++
		cInval.Inc()
	}
	if f, ok := c.flights[fk]; ok {
		c.waits++
		c.mu.Unlock()
		cShared.Inc()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		return f.lines, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[fk] = f
	c.misses++
	c.mu.Unlock()
	cMisses.Inc()

	completed := false
	defer func() {
		// Always release the flight — a panicking exec must not strand
		// collapsed waiters on a channel nobody will close, nor hand
		// them a result that was never computed.
		c.mu.Lock()
		delete(c.flights, fk)
		if completed && f.err == nil {
			c.storeLocked(key, fp, f.lines)
		} else if !completed {
			f.err = errAborted
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.lines, f.err = exec()
	completed = true
	return f.lines, false, f.err
}

// Lookup reports whether a fresh entry exists for key at fp without
// executing anything or perturbing LRU order. Used by tests and the
// EXPLAIN surface.
func (c *Cache) Lookup(key, fp string) ([]string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.fp != fp {
		return nil, false
	}
	return e.lines, true
}

// Flush drops every entry (counters survive).
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		c.removeLocked(e)
	}
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:              c.hits,
		Misses:            c.misses,
		SingleflightWaits: c.waits,
		Evictions:         c.evicts,
		Invalidations:     c.invals,
		Entries:           int64(len(c.entries)),
		Bytes:             c.bytes,
		MaxBytes:          c.maxB,
	}
}

// storeLocked inserts a result as the newest never-hit entry, evicting
// the oldest never-hit entries while there are more than maxFresh of
// them, and then — never-hit entries first, LRU tail next — until the
// byte budget holds. Oversize results (bigger than the whole budget)
// are not stored at all.
func (c *Cache) storeLocked(key, fp string, lines []string) {
	size := int64(len(key)+len(fp)) + entryOverhead
	for _, l := range lines {
		size += int64(len(l)) + 16
	}
	if size > c.maxB {
		cOversize.Inc()
		return
	}
	if old, ok := c.entries[key]; ok {
		// A concurrent flight for a different fingerprint finished
		// first; replace whichever is older — last writer wins, and the
		// fingerprint check at lookup keeps either answer safe.
		c.removeLocked(old)
	}
	e := &entry{key: key, fp: fp, lines: lines, bytes: size}
	e.elem = c.fresh.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	for c.fresh.Len() > maxFresh || c.bytes > c.maxB {
		// The entry just stored is never its own victim, so the second
		// identical query hits whatever the hot entries weigh.
		victim := c.fresh.Back()
		if victim == e.elem {
			victim = c.lru.Back()
		}
		if victim == nil {
			break
		}
		c.removeLocked(victim.Value.(*entry))
		c.evicts++
		cEvict.Inc()
	}
	gEntries.Set(int64(len(c.entries)))
	gBytes.Set(c.bytes)
}

// removeLocked unlinks an entry and returns its bytes to the budget.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	if e.hit {
		c.lru.Remove(e.elem)
	} else {
		c.fresh.Remove(e.elem)
	}
	c.bytes -= e.bytes
	gEntries.Set(int64(len(c.entries)))
	gBytes.Set(c.bytes)
}
