// Package stream manages standing COQL queries over live video
// ingestion: SUBSCRIBE registers a query, and every ingest batch the
// manager re-evaluates only the subscriptions whose kernel
// dependencies actually changed (per-BAT epochs decide), pushing each
// changed result set to its subscriber through a bounded drop-oldest
// queue.
//
// The delivery model is refresh-push: a notification carries the FULL
// current result set, rendered exactly as a one-shot COQL response at
// the same watermark, and is suppressed when identical to the
// previous push. Subscribers therefore never need to merge deltas —
// the latest notification IS the query result — and the streaming
// path's acceptance criterion (byte-identity with a one-shot query)
// holds at every watermark.
//
// Standing queries bypass the server's semantic result cache
// (internal/qcache) entirely: both layers key coherence off the same
// per-BAT epochs, but the cache is pull-based — an epoch mismatch is
// discovered at the next lookup — while subscriptions are push-based
// and must re-evaluate the moment the epoch moves. Sharing entries
// would let a standing query pin results the cache considers stale.
//
// Evaluation is shared and incremental: subscriptions whose parsed
// query has the same query.Canonical() text form one class, and the
// class — not the subscription — owns the query.Incremental (leaf
// caches that restrict physical scans to rows appended since the
// previous evaluation), the dependency epochs and the last rendered
// result. A tick evaluates each class at most once and hands a changed
// result to every member's own queue as the same immutable Lines slice;
// a class of one is simply the unshared case of the same path. Every
// evaluation runs under its own "stream.eval" trace; the ones that
// pushed a change or failed go to obs.DefaultTraces, so TRACEDUMP
// covers standing queries without their no-change re-evaluations
// evicting every one-shot trace from the ring.
//
// Lock order: Manager.mu, then class.evalMu, then Subscription.mu; the
// manager's lock is never held across an evaluation.
package stream

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"cobra/internal/monet"
	"cobra/internal/obs"
	"cobra/internal/query"
)

// Streaming metrics: standing-query and class counts, how many class
// re-evaluations the epoch gate admitted versus skipped, and per-member
// delivery/drop volume.
var (
	gSubs    = obs.G("stream.subscriptions")
	gClasses = obs.G("stream.classes")
	cEvals   = obs.C("stream.evals")
	cSkipped = obs.C("stream.evals_skipped")
	cErrors  = obs.C("stream.eval.errors")
	cNotifs  = obs.C("stream.notifications")
	cDropped = obs.C("stream.dropped")
	hEvalLat = obs.H("stream.eval.latency")
)

// DefaultQueueCap bounds each subscriber's notification queue; when a
// slow consumer falls this far behind, the oldest pending notification
// is dropped (the newest one always supersedes it under refresh-push).
const DefaultQueueCap = 16

// Notification is one pushed update: the standing query's full result
// set at a watermark, rendered in the one-shot wire format.
type Notification struct {
	// SubID identifies the subscription.
	SubID string
	// Seq numbers this subscription's pushes from 1.
	Seq int
	// Watermark is the video duration the result was evaluated at.
	Watermark float64
	// Lines is the rendered result set (query.AppendResult per segment).
	// Every member of a class receives the same slice: read-only.
	Lines []string
}

// Subscription is one standing query with its bounded delivery queue.
// The manager is the only producer; the subscriber consumes with Next.
type Subscription struct {
	// ID is the manager-assigned subscription identifier.
	ID string
	// Query is the COQL source text.
	Query string
	// Owner tags the subscription with its creator (the server uses the
	// connection), so all of a disconnecting client's subscriptions can
	// be dropped together.
	Owner any

	class *class
	// seq counts this member's pushes; guarded by class.evalMu.
	seq int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Notification
	cap     int
	dropped int
	closed  bool
}

// push enqueues a notification, dropping the oldest pending one when
// the subscriber is more than cap notifications behind.
func (s *Subscription) push(n Notification) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if len(s.queue) >= s.cap {
		s.queue = s.queue[1:]
		s.dropped++
		cDropped.Inc()
	}
	s.queue = append(s.queue, n)
	s.cond.Signal()
}

// Next blocks until a notification is pending or the subscription is
// closed; ok=false means closed with nothing left to deliver.
func (s *Subscription) Next() (n Notification, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		return Notification{}, false
	}
	n = s.queue[0]
	s.queue = s.queue[1:]
	return n, true
}

// TryNext is Next without blocking; ok=false means nothing pending
// right now (the subscription may still be live).
func (s *Subscription) TryNext() (n Notification, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return Notification{}, false
	}
	n = s.queue[0]
	s.queue = s.queue[1:]
	return n, true
}

// Dropped returns how many notifications backpressure discarded.
func (s *Subscription) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Closed reports whether the subscription has been cancelled.
func (s *Subscription) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// close wakes all Next waiters; pending notifications stay readable.
func (s *Subscription) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// class is one distinct standing query: every subscription whose
// parsed query canonicalizes to key. It is evaluated once per tick for
// all of them.
type class struct {
	key  string
	inc  *query.Incremental
	deps []string
	// refs counts subscriptions registered or registering on the class;
	// guarded by Manager.mu. The class leaves the table at zero.
	refs int

	// evalMu serializes evaluations and joins (the Incremental's leaf
	// caches are not concurrency-safe) and guards the fields below.
	evalMu  sync.Mutex
	members []*Subscription
	epochs  map[string]uint64
	// primed says lines holds a result: what every member last received.
	primed bool
	lines  []string
}

// Manager owns the subscription and class tables and drives
// re-evaluation. One manager serves one engine/catalog.
type Manager struct {
	eng *query.Engine

	// QueueCap is the per-subscription queue bound applied to new
	// subscriptions (DefaultQueueCap when zero).
	QueueCap int

	mu      sync.Mutex
	subs    map[string]*Subscription
	classes map[string]*class
	nextID  int
}

// NewManager returns an empty subscription manager over the engine.
func NewManager(eng *query.Engine) *Manager {
	return &Manager{eng: eng, subs: map[string]*Subscription{}, classes: map[string]*class{}}
}

// Subscribe parses and registers a standing query, returning the live
// subscription. It joins the class of its canonical query text under
// the class's evaluation lock, where the class is brought up to date
// (an epoch-gated evaluation whose change, if any, goes to every
// member) and the joiner receives the class's current result as its
// notification #1 — no evaluation when the class is fresh, no gap or
// duplicate for anyone. On a class with no result yet (e.g. a live
// feed that has not ticked), the first Advance that evaluates delivers
// #1 instead.
func (m *Manager) Subscribe(src string, owner any) (*Subscription, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	if _, err := m.eng.Catalog().Video(q.Video); err != nil {
		return nil, err
	}
	key := q.Canonical()
	s := &Subscription{Query: src, Owner: owner, cap: m.QueueCap}
	if s.cap <= 0 {
		s.cap = DefaultQueueCap
	}
	s.cond = sync.NewCond(&s.mu)

	m.mu.Lock()
	c := m.classes[key]
	if c == nil {
		inc := query.NewIncremental(m.eng, q)
		c = &class{key: key, inc: inc, deps: inc.DepNames()}
		m.classes[key] = c
		gClasses.Set(int64(len(m.classes)))
	}
	c.refs++ // pins the class in the table until this subscription leaves
	m.nextID++
	s.ID = fmt.Sprintf("s%d", m.nextID)
	s.class = c
	m.mu.Unlock()

	m.evaluate(context.Background(), c, s)

	// Listed only once it is a member: Unsubscribe never meets a
	// subscription its class does not know yet.
	m.mu.Lock()
	m.subs[s.ID] = s
	gSubs.Set(int64(len(m.subs)))
	m.mu.Unlock()
	return s, nil
}

// Unsubscribe cancels a subscription by ID.
func (m *Manager) Unsubscribe(id string) bool {
	m.mu.Lock()
	s, ok := m.subs[id]
	if ok {
		m.dropLocked(s)
	}
	m.mu.Unlock()
	if ok {
		s.leave()
	}
	return ok
}

// UnsubscribeOwner cancels every subscription tagged with the owner
// (server connections call this on disconnect) and returns how many it
// removed.
func (m *Manager) UnsubscribeOwner(owner any) int {
	m.mu.Lock()
	var victims []*Subscription
	for _, s := range m.subs {
		if s.Owner == owner {
			m.dropLocked(s)
			victims = append(victims, s)
		}
	}
	m.mu.Unlock()
	for _, s := range victims {
		s.leave()
	}
	return len(victims)
}

// dropLocked removes s from the tables; the last member leaving deletes
// its class, leaf state and all. Called with m.mu held.
func (m *Manager) dropLocked(s *Subscription) {
	delete(m.subs, s.ID)
	gSubs.Set(int64(len(m.subs)))
	c := s.class
	if c.refs--; c.refs == 0 {
		delete(m.classes, c.key)
		gClasses.Set(int64(len(m.classes)))
	}
}

// leave closes a subscription dropped from the tables, then takes it
// off its class's member list. A fan-out in between finds the queue
// closed.
func (s *Subscription) leave() {
	s.close()
	c := s.class
	c.evalMu.Lock()
	defer c.evalMu.Unlock()
	if i := slices.Index(c.members, s); i >= 0 {
		c.members = slices.Delete(c.members, i, i+1)
	}
}

// Get returns a subscription by ID.
func (m *Manager) Get(id string) (*Subscription, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	return s, ok
}

// List returns the current subscriptions in unspecified order;
// callers needing a stable listing sort by ID.
func (m *Manager) List() []*Subscription {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Subscription, 0, len(m.subs))
	for _, s := range m.subs {
		out = append(out, s)
	}
	return out
}

// Advance re-evaluates standing queries after an ingest batch: one
// task per class on the shared kernel pool. Only classes with a changed
// kernel dependency epoch are evaluated (the rest count as skips), and
// only a changed result is pushed, to every member. It returns how many
// notifications were pushed.
func (m *Manager) Advance(ctx context.Context) int {
	m.mu.Lock()
	classes := make([]*class, 0, len(m.classes))
	for _, c := range m.classes {
		classes = append(classes, c)
	}
	m.mu.Unlock()
	if len(classes) == 0 {
		return 0
	}
	pushed := make([]int, len(classes))
	batch := monet.DefaultPool().Batch()
	for i, c := range classes {
		i, c := i, c
		batch.Submit(func() { pushed[i] = m.evaluate(ctx, c, nil) })
	}
	batch.Wait()
	total := 0
	for _, p := range pushed {
		total += p
	}
	return total
}

// evaluate runs one epoch-gated incremental evaluation of a class and
// fans a changed result out to its members. A joiner becomes a member
// first, so a change reaches it with everyone else; when the class had
// nothing new it is handed the class's current result instead. Either
// way that is its notification #1. It reports how many notifications
// were pushed.
func (m *Manager) evaluate(ctx context.Context, c *class, joiner *Subscription) int {
	c.evalMu.Lock()
	defer c.evalMu.Unlock()
	if joiner != nil {
		c.members = append(c.members, joiner)
	}
	if len(c.members) == 0 {
		return 0 // an Advance still held a class whose last member has left
	}
	pushed := m.refresh(ctx, c)
	if joiner != nil && joiner.seq == 0 && c.primed {
		// No dependency has moved since c.lines was rendered, so it is
		// also the result at the video's current duration.
		w := c.inc.Duration()
		if v, err := m.eng.Catalog().Video(c.inc.Query().Video); err == nil {
			w = v.Duration
		}
		c.deliver(joiner, w)
		pushed++
	}
	return pushed
}

// refresh is evaluate's class step: gate, evaluate, render, compare,
// fan out. Called with c.evalMu held and at least one member.
func (m *Manager) refresh(ctx context.Context, c *class) int {
	epochs := make(map[string]uint64, len(c.deps))
	stale := !c.primed
	store := m.eng.Catalog().Store()
	for _, dep := range c.deps {
		_, ep := store.Watermark(dep)
		epochs[dep] = ep
		if c.epochs[dep] != ep {
			stale = true
		}
	}
	if !stale {
		cSkipped.Inc()
		return 0
	}

	lead := c.members[0]
	root := obs.StartTrace("stream.eval")
	root.SetAttr("level", "conceptual")
	root.SetAttr("query", lead.Query)
	root.SetAttr("subscription", lead.ID)
	root.SetAttr("members", strconv.Itoa(len(c.members)))
	cEvals.Inc()
	res, err := c.inc.Eval(obs.ContextWithSpan(ctx, root), root)
	pushed, changed := 0, false
	if err != nil {
		cErrors.Inc()
		root.SetAttr("error", err.Error())
		// The epochs stay as they were (and a class that never succeeded
		// stays un-primed), so the next Advance retries even if no epoch
		// moves (e.g. a feed series that appears later).
	} else {
		lines := make([]string, len(res))
		var buf []byte
		for i, r := range res {
			buf = query.AppendResult(buf[:0], r)
			lines[i] = string(buf)
		}
		c.epochs = epochs
		if changed = !c.primed || !slices.Equal(lines, c.lines); changed {
			c.primed = true
			c.lines = lines
			for _, s := range c.members {
				c.deliver(s, c.inc.Duration())
			}
			pushed = len(c.members)
		}
	}
	stat := root.Resources().Stat()
	d := root.Finish()
	hEvalLat.Observe(d)
	// Only an evaluation with something new to say — a changed result
	// or a failure — reaches the trace ring: the rest would evict every
	// one-shot query's trace from it many times a tick.
	if err != nil || changed {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		obs.DefaultTraces.Add(obs.Trace{
			ID:       root.TraceID(),
			Query:    "SUBSCRIBE[" + lead.ID + "] " + lead.Query,
			Start:    root.StartTime(),
			Duration: d,
			Err:      errStr,
			Res:      stat,
			Root:     root,
		})
	}
	return pushed
}

// deliver pushes the class's current lines to one member as its next
// notification. Called with c.evalMu held.
func (c *class) deliver(s *Subscription, watermark float64) {
	s.seq++
	s.push(Notification{SubID: s.ID, Seq: s.seq, Watermark: watermark, Lines: c.lines})
	cNotifs.Inc()
}
