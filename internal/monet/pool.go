package monet

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cobra/internal/obs"
)

// Worker-pool metrics: task volume, queue pressure and the configured
// width. Queue depth is sampled by the STATS report while operators
// run, so it is maintained on every enqueue/dequeue.
var (
	cPoolTasks   = obs.C("monet.pool.tasks")
	cPoolInline  = obs.C("monet.pool.inline")
	cPoolMorsels = obs.C("monet.pool.morsels")
	gPoolQueue   = obs.G("monet.pool.queue.depth")
	gPoolWorkers = obs.G("monet.pool.workers")
)

// MorselSize is the number of BAT rows one pool task processes: the
// fixed morsel granularity of the kernel's data-parallel operators.
// Morsel boundaries depend only on the BAT length, never on the worker
// count, which is what makes parallel results deterministic across
// pool sizes.
const MorselSize = 16384

// ParallelThreshold is the minimum BAT length at which the bulk
// operators fan out over the shared pool; smaller inputs take the
// serial path and pay no scheduling overhead.
const ParallelThreshold = 2 * MorselSize

// maxPoolWorkers caps SetDefaultPoolWorkers so a runaway MIL
// threadcnt() cannot spawn unbounded goroutines.
const maxPoolWorkers = 256

// Pool is a fixed-size worker pool executing submitted tasks — the
// kernel's rendering of Monet's intra-query parallelism (the threadcnt
// block of the paper's Fig. 4) as a shared, morsel-driven scheduler
// rather than per-operator fork/join goroutines.
type Pool struct {
	workers int
	mu      sync.RWMutex // guards tasks against a concurrent Close
	closed  bool
	tasks   chan func()
	done    sync.WaitGroup
}

// NewPool starts a pool of the given width; workers <= 0 selects
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, tasks: make(chan func(), 4*workers)}
	p.done.Add(workers)
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

func (p *Pool) work() {
	defer p.done.Done()
	for t := range p.tasks {
		gPoolQueue.Add(-1)
		t()
	}
}

// Workers returns the pool's configured width.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers after the queued tasks drain. Submissions
// arriving after Close run inline on the submitter, so a handle to a
// closed pool stays usable.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.done.Wait()
}

// Batch returns an empty task group on the pool. Every Submit must be
// matched by a Wait on all return paths (the cobravet poolleak
// analyzer enforces this).
func (p *Pool) Batch() *Batch { return &Batch{pool: p} }

// Batch tracks a group of tasks submitted to a pool so the submitter
// can join on exactly its own work while the pool stays shared.
type Batch struct {
	pool    *Pool
	pending atomic.Int64
	wg      sync.WaitGroup
}

// Submit schedules fn on the pool. When the queue is full — or the
// pool is closed — fn runs inline on the submitter instead, which
// bounds queue memory and guarantees progress for nested fan-out.
func (b *Batch) Submit(fn func()) {
	b.wg.Add(1)
	b.pending.Add(1)
	task := func() {
		defer b.wg.Done()
		defer b.pending.Add(-1)
		fn()
	}
	cPoolTasks.Inc()
	b.pool.mu.RLock()
	if !b.pool.closed {
		select {
		case b.pool.tasks <- task:
			gPoolQueue.Add(1)
			b.pool.mu.RUnlock()
			return
		default:
		}
	}
	b.pool.mu.RUnlock()
	cPoolInline.Inc()
	task()
}

// Wait blocks until every task submitted to this batch has finished.
// While its own tasks are still queued it helps drain the pool, which
// keeps nested fork-joins deadlock-free: a waiter never idles while
// runnable tasks exist, so a pool task may itself batch sub-tasks onto
// the same pool.
func (b *Batch) Wait() {
	for b.pending.Load() > 0 {
		select {
		case t, ok := <-b.pool.tasks:
			if !ok {
				// Pool closed mid-wait: our queued tasks were drained
				// by the exiting workers; just join the stragglers.
				b.wg.Wait()
				return
			}
			gPoolQueue.Add(-1)
			t()
		default:
			// Nothing queued: the rest of our tasks are running on
			// other workers; block until they finish.
			b.wg.Wait()
			return
		}
	}
	b.wg.Wait()
}

// defaultPool holds the process-wide pool the kernel operators use.
var defaultPool struct {
	mu sync.RWMutex
	p  *Pool
}

// DefaultPool returns the shared kernel pool, creating it with
// GOMAXPROCS workers on first use.
func DefaultPool() *Pool {
	defaultPool.mu.RLock()
	p := defaultPool.p
	defaultPool.mu.RUnlock()
	if p != nil {
		return p
	}
	defaultPool.mu.Lock()
	defer defaultPool.mu.Unlock()
	if defaultPool.p == nil {
		defaultPool.p = NewPool(0)
		gPoolWorkers.Set(int64(defaultPool.p.workers))
	}
	return defaultPool.p
}

// SetDefaultPoolWorkers resizes the shared pool (n <= 0 selects
// GOMAXPROCS; n is clamped to 256) and returns the previous width.
// It backs `cobra-server -threads` and the MIL threadcnt() setting.
// With width 1 the kernel operators take their serial paths. In-flight
// operators holding the old pool finish on it; it is then drained and
// closed.
func SetDefaultPoolWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	defaultPool.mu.Lock()
	old := defaultPool.p
	prev := runtime.GOMAXPROCS(0)
	if old != nil {
		prev = old.workers
	}
	if old != nil && old.workers == n {
		defaultPool.mu.Unlock()
		return prev
	}
	defaultPool.p = NewPool(n)
	gPoolWorkers.Set(int64(n))
	defaultPool.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return prev
}

// poolFor returns the shared pool when a bulk operation over n rows
// should go parallel: the input clears the morsel threshold and the
// pool is wider than one worker.
func poolFor(n int) (*Pool, bool) {
	if n < ParallelThreshold {
		return nil, false
	}
	p := DefaultPool()
	if p.Workers() <= 1 {
		return nil, false
	}
	return p, true
}
