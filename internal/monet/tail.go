package monet

import (
	"context"
	"fmt"
	"time"

	"cobra/internal/obs"
)

// Batch-commit metrics: committed write batches and the rows their
// append entries carried.
var (
	cAppendBatches = obs.C("monet.store.append_batches")
	cAppendRows    = obs.C("monet.store.append_rows")
)

// snap returns a shallow copy of a column: a new column header over
// the same backing array. Appending to the copy either extends the
// array in place past the original's length (positions the original
// can never index) or reallocates; either way the original column is
// immutable afterwards. This is what makes store-level appends
// copy-on-write in O(appended) instead of O(existing). Writers are
// serialized by the store's writer mutex, so a successor that is
// discarded (a rejected commit) leaves only unreachable slots behind.
func snap(c Column) Column {
	switch t := c.(type) {
	case *voidColumn:
		return &voidColumn{n: t.n}
	case *oidColumn:
		return &oidColumn{v: t.v}
	case *intColumn:
		return &intColumn{v: t.v}
	case *floatColumn:
		return &floatColumn{v: t.v}
	case *strColumn:
		return &strColumn{v: t.v}
	case *boolColumn:
		return &boolColumn{v: t.v}
	case *blobColumn:
		return &blobColumn{v: t.v}
	default:
		return c.Clone()
	}
}

// successor returns a copy-on-write extension point of the BAT: fresh
// column headers over the receiver's storage. Appends go to the
// successor; readers holding the receiver keep a consistent prefix.
func (b *BAT) successor() *BAT { return &BAT{head: snap(b.head), tail: snap(b.tail)} }

// BatchEntry is one mutation of a WriteBatch: a whole-BAT put, or an
// append of typed tail values to an existing BAT. Build appends with
// FloatTail and StrTail.
type BatchEntry struct {
	// Name is the BAT the entry targets.
	Name string
	// Put, when non-nil, registers (or replaces) this BAT under Name;
	// the append fields below are unused.
	Put *BAT
	// Type is the tail type of an append: FloatT (values in Floats) or
	// StrT (values in Strs). Heads are never carried: void heads stay
	// virtual and OID heads continue the dense sequence from Base.
	Type   Type
	Floats []float64
	Strs   []string
	// Base is the row an append starts at — the append watermark.
	// Commit fills it in; in a batch decoded from a log (ReplayBatch)
	// it is what the log recorded, and Commit verifies it instead.
	Base int

	group int // entries of one column group share a non-zero group
}

// Rows returns the number of tail values an append entry carries.
func (e *BatchEntry) Rows() int {
	if e.Type == StrT {
		return len(e.Strs)
	}
	return len(e.Floats)
}

// FloatTail is the append of vals to the dbl-tailed BAT name.
func FloatTail(name string, vals []float64) BatchEntry {
	return BatchEntry{Name: name, Type: FloatT, Floats: vals}
}

// StrTail is the append of vals to the str-tailed BAT name.
func StrTail(name string, vals []string) BatchEntry {
	return BatchEntry{Name: name, Type: StrT, Strs: vals}
}

// WriteBatch is a set of store mutations that Store.Commit applies
// atomically: one journal record, one visibility point. (The name
// Batch belongs to the worker pool's task group.) The zero value is an
// empty batch. Entries apply in order, so a batch may put a BAT and
// then append to it.
type WriteBatch struct {
	entries []BatchEntry
	groups  int
	replay  bool
}

// Put adds the registration (or replacement) of a whole BAT.
func (w *WriteBatch) Put(name string, b *BAT) {
	w.entries = append(w.entries, BatchEntry{Name: name, Put: b})
}

// AppendGroup adds one column group — the decomposed-storage analogue
// of inserting n tuples into a relation: every named BAT must hold the
// same row count at commit time and every column must carry the same
// number of rows. It returns the index of the group's first entry in
// Entries, where the committed Base can be read back.
func (w *WriteBatch) AppendGroup(cols ...BatchEntry) int {
	at := len(w.entries)
	w.groups++
	for _, c := range cols {
		c.group = w.groups
		w.entries = append(w.entries, c)
	}
	return at
}

// Entries exposes the batch's mutations in commit order, for journal
// encoders and for reading Base back after Commit. The slice is the
// batch's own; callers must not modify it.
func (w *WriteBatch) Entries() []BatchEntry { return w.entries }

// ReplayBatch rebuilds a batch from entries decoded from a log. Each
// append is checked against the Base the log recorded: Commit fails if
// the BAT does not currently end exactly there, so a replay can never
// leave columns at lengths the original commit did not produce.
func ReplayBatch(entries []BatchEntry) *WriteBatch {
	for i := range entries {
		entries[i].group = i + 1
	}
	return &WriteBatch{entries: entries, groups: len(entries), replay: true}
}

// Watermark returns the current row count and mutation epoch of a
// named BAT (0, 0 when the name is not registered). The pair is read
// atomically under the store lock, so it names a consistent point in
// the BAT's append history: a subscription that saw (rows, epoch) can
// later ask "did anything change?" by comparing epochs and "what is
// new?" by reading rows from the old count on.
func (s *Store) Watermark(name string) (rows int, epoch uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if b, ok := s.bats[name]; ok {
		rows = b.Len()
	}
	return rows, s.epochs[name]
}

// Commit applies a batch atomically and write-ahead:
//
//  1. under the writer mutex, every entry is validated (existence,
//     tail type, head generation, per-group alignment) and the
//     copy-on-write successor of every touched BAT is built;
//  2. the journal receives the whole batch as one record and, under a
//     synchronous log, makes it durable — before anything is visible
//     and without holding the readers' lock;
//  3. the store lock is taken only to swap the successors in and bump
//     the epochs of all touched names, in one critical section.
//
// A validation or journal error leaves the store exactly as it was.
// Readers holding pre-commit *BAT snapshots are never mutated under
// and see a consistent prefix. Time spent in the journal is attributed
// to the WAL-wait counter of the trace carried by ctx.
func (s *Store) Commit(ctx context.Context, w *WriteBatch) error {
	if len(w.entries) == 0 {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	next, rows, err := s.stage(w)
	if err != nil {
		return err
	}
	if err := s.logged(ctx, func(j Journal) error { return j.JournalBatch(w) }); err != nil {
		return err
	}
	s.mu.Lock()
	for name, nb := range next {
		s.bats[name] = nb
		s.bumpEpochLocked(name)
	}
	s.mu.Unlock()
	cAppendBatches.Inc()
	cAppendRows.Add(int64(rows))
	return nil
}

// stage validates a batch against the current contents and builds the
// successor of every BAT it touches, keyed by name; nothing becomes
// visible. The caller holds the writer mutex, so the contents cannot
// change between staging and the swap.
func (s *Store) stage(w *WriteBatch) (next map[string]*BAT, rows int, err error) {
	next = make(map[string]*BAT, len(w.entries))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range w.entries {
		e := &w.entries[i]
		if e.Put != nil {
			next[e.Name] = e.Put
			continue
		}
		cur, ok := next[e.Name]
		if !ok {
			if cur, ok = s.bats[e.Name]; !ok {
				return nil, 0, fmt.Errorf("%w: %q", ErrNoSuchBAT, e.Name)
			}
		}
		base := cur.Len()
		if w.replay && e.Base != base {
			return nil, 0, fmt.Errorf("monet: replayed append to %q starts at row %d, but the BAT has %d rows", e.Name, e.Base, base)
		}
		e.Base = base
		if i > 0 {
			if p := &w.entries[i-1]; p.Put == nil && p.group == e.group {
				if p.Base != base {
					return nil, 0, fmt.Errorf("monet: commit on misaligned BATs: %q has %d rows, %q has %d", p.Name, p.Base, e.Name, base)
				}
				if p.Rows() != e.Rows() {
					return nil, 0, fmt.Errorf("monet: commit column %q has %d rows, want %d", e.Name, e.Rows(), p.Rows())
				}
			}
		}
		nb, err := cur.extend(e)
		if err != nil {
			return nil, 0, fmt.Errorf("monet: commit %q: %w", e.Name, err)
		}
		next[e.Name] = nb
		rows += e.Rows()
	}
	return next, rows, nil
}

// extend returns the receiver's successor with the entry's rows
// appended from row e.Base (the receiver's length) on. Only virtual
// (void) and dense OID heads can be generated; value-typed heads would
// need caller-provided keys, which the append path never has.
func (b *BAT) extend(e *BatchEntry) (*BAT, error) {
	nb := b.successor()
	n := e.Rows()
	switch h := nb.head.(type) {
	case *voidColumn:
		h.n += n
	case *oidColumn:
		for i := 0; i < n; i++ {
			h.v = append(h.v, OID(e.Base+i))
		}
	default:
		return nil, fmt.Errorf("cannot generate %v head values", b.head.Type())
	}
	switch t := nb.tail.(type) {
	case *floatColumn:
		if e.Type == FloatT {
			t.v = append(t.v, e.Floats...)
			return nb, nil
		}
	case *strColumn:
		if e.Type == StrT {
			t.v = append(t.v, e.Strs...)
			return nb, nil
		}
	}
	return nil, fmt.Errorf("%w: %v tails into [%v,%v]", ErrTypeMismatch, e.Type, b.head.Type(), b.tail.Type())
}

// logged hands one record to the attached journal, if any, charging
// the wait (including a group-commit fsync) to the trace in ctx. The
// caller holds the writer mutex — which is what makes WAL order equal
// apply order — and must not hold the store lock, so readers never
// wait behind a log write. On error the caller must not apply the
// mutation.
func (s *Store) logged(ctx context.Context, record func(Journal) error) error {
	if s.journal == nil {
		return nil
	}
	start := time.Now()
	err := record(s.journal)
	obs.SpanFromContext(ctx).Resources().AddWALWait(time.Since(start))
	if err != nil {
		cJournalErr.Inc()
	}
	return err
}

// AppendColumns appends n rows to a group of BATs as a one-group
// Commit: all named BATs must exist and hold the same row count, and
// tails[i] carries the n dbl or str tail values for names[i]. The
// previous row count — the append watermark — is returned, so callers
// know exactly which rows are new.
func (s *Store) AppendColumns(ctx context.Context, names []string, tails [][]Value) (fromRow int, err error) {
	if len(names) == 0 || len(names) != len(tails) {
		return 0, fmt.Errorf("monet: AppendColumns needs matching names and tails")
	}
	cols := make([]BatchEntry, len(names))
	for i, ts := range tails {
		if len(ts) == 0 {
			return 0, fmt.Errorf("monet: AppendColumns column %q has no rows", names[i])
		}
		cols[i] = BatchEntry{Name: names[i], Type: ts[0].Typ}
		for _, v := range ts {
			switch {
			case v.Typ != ts[0].Typ:
				return 0, fmt.Errorf("%w: mixed tails for %q", ErrTypeMismatch, names[i])
			case v.Typ == FloatT:
				cols[i].Floats = append(cols[i].Floats, v.F)
			case v.Typ == StrT:
				cols[i].Strs = append(cols[i].Strs, v.S)
			default:
				return 0, fmt.Errorf("%w: AppendColumns carries dbl and str tails, not %v", ErrTypeMismatch, v.Typ)
			}
		}
	}
	var w WriteBatch
	w.AppendGroup(cols...)
	if err := s.Commit(ctx, &w); err != nil {
		return 0, err
	}
	return w.entries[0].Base, nil
}
