package monet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cobra/internal/obs"
)

// cJournalErr counts journal write failures observed by the store.
// Each one is a mutation that was rejected: write-ahead means a record
// that could not be logged is never applied.
var cJournalErr = obs.C("monet.store.journal_errors")

// Journal receives a record for every store-level mutation before it
// becomes visible, in mutation order. The durability subsystem
// (internal/wal) implements it with a write-ahead log; a nil journal
// keeps the store purely in-memory, as in the original Monet kernel.
//
// Journal methods are invoked while the store's writer mutex is held
// (and the readers' lock is not), so implementations observe mutations
// one at a time, in exactly the order they are applied, and must not
// call back into the Store. A non-nil error rejects the mutation. The
// arguments must be serialized or copied before the call returns.
type Journal interface {
	// JournalPut records the registration (or replacement) of a whole
	// BAT under name.
	JournalPut(name string, b *BAT) error
	// JournalAppend records the append of one (head, tail) association
	// to the named BAT.
	JournalAppend(name string, h, t Value) error
	// JournalDrop records the removal of the named BAT.
	JournalDrop(name string) error
	// JournalBatch records a whole write batch as one atomic record:
	// after a crash either every entry of it is recovered or none is.
	JournalBatch(w *WriteBatch) error
}

// Store is a named catalog of BATs: the kernel's database. It is safe
// for concurrent use. With a Journal attached (SetJournal), every
// mutation is logged before it is applied — and is not applied when
// logging fails — giving the write-ahead discipline the durability
// layer builds on.
//
// Every mutation of a named BAT (Put, Append, Drop, Commit) bumps that
// name's epoch counter, which lazily invalidates the adaptive
// access-path structures (zone maps, crackers, dictionaries) kept per
// name; see accesspath.go. Recovery goes through Put, so restored BATs
// arrive with fresh epochs and indexes rebuild on first use.
type Store struct {
	// wmu serializes writers (Put, Append, Drop, Commit, Checkpoint)
	// and guards journal. A writer validates and journals holding only
	// wmu, then takes mu for the in-memory swap, so readers never wait
	// behind a log write and the log order is the apply order. Lock
	// order: wmu before mu; never the reverse.
	wmu     sync.Mutex
	journal Journal

	mu     sync.RWMutex
	bats   map[string]*BAT
	epochs map[string]uint64

	// idxMu guards indexes. Lock order: mu before idxMu before the
	// per-index batIndex.mu; never the reverse.
	idxMu   sync.Mutex
	indexes map[string]*batIndex
}

// ErrNoSuchBAT is returned when a named BAT does not exist.
var ErrNoSuchBAT = errors.New("monet: no such BAT")

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{bats: make(map[string]*BAT), epochs: make(map[string]uint64)}
}

// bumpEpochLocked advances the mutation epoch of a named BAT. It must
// run under the store's write lock, in the same critical section as
// the mutation it records, so index readers can never observe a new
// column state under an old epoch (the cobravet epochguard analyzer
// enforces the pairing).
func (s *Store) bumpEpochLocked(name string) {
	if s.epochs == nil {
		s.epochs = make(map[string]uint64)
	}
	s.epochs[name]++
	cIdxInvalidations.Inc()
}

// Epoch returns the mutation epoch of a named BAT: 0 if the name was
// never written, monotonically increasing across Put/Append/Drop
// (epochs survive Drop so re-registering a name keeps invalidating).
func (s *Store) Epoch(name string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epochs[name]
}

// Epochs returns the mutation epochs of the named BATs, in argument
// order, read under a single lock acquisition: the vector is a
// consistent snapshot, never torn across a concurrent mutation. The
// serving layer's result cache fingerprints a query's dependency set
// with it — a mutation committing between two reads must move the
// whole vector, not half of it.
func (s *Store) Epochs(names []string) []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uint64, len(names))
	for i, n := range names {
		out[i] = s.epochs[n]
	}
	return out
}

// SetJournal attaches (or, with nil, detaches) the mutation journal.
// Attach after recovery has replayed historical mutations, so replay
// itself is not re-logged.
func (s *Store) SetJournal(j Journal) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.journal = j
}

// Put registers (or replaces) a BAT under the given name. With a
// journal attached the mutation is logged first; a journal error is
// returned (and counted in monet.store.journal_errors) and the
// mutation is not applied.
func (s *Store) Put(name string, b *BAT) error {
	return s.PutCtx(context.Background(), name, b)
}

// PutCtx is Put under a trace context: time blocked on the journal
// (including any WAL fsync group commit) is attributed to the trace's
// WAL-wait resource counter. The Journal interface itself stays
// context-free.
func (s *Store) PutCtx(ctx context.Context, name string, b *BAT) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.logged(ctx, func(j Journal) error { return j.JournalPut(name, b) }); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bats[name] = b
	s.bumpEpochLocked(name)
	return nil
}

// Append appends one (head, tail) association to the named BAT,
// journaling the mutation when a journal is attached. It is the
// durable counterpart of Get-then-Insert: direct BAT mutation bypasses
// the journal and is lost on crash. Like Commit it is copy-on-write:
// a *BAT fetched before the call never sees the new row.
func (s *Store) Append(name string, h, t Value) error {
	return s.AppendCtx(context.Background(), name, h, t)
}

// AppendCtx is Append under a trace context; see PutCtx for the
// WAL-wait attribution contract.
func (s *Store) AppendCtx(ctx context.Context, name string, h, t Value) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	b, err := s.Get(name)
	if err != nil {
		return err
	}
	nb := b.successor()
	if err := nb.Insert(h, t); err != nil {
		return err
	}
	if err := s.logged(ctx, func(j Journal) error { return j.JournalAppend(name, h, t) }); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bats[name] = nb
	s.bumpEpochLocked(name)
	return nil
}

// Get returns the BAT registered under name.
func (s *Store) Get(name string) (*BAT, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.bats[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchBAT, name)
	}
	return b, nil
}

// Has reports whether a BAT is registered under name.
func (s *Store) Has(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.bats[name]
	return ok
}

// Drop removes the BAT registered under name, if any. Like Put, the
// mutation is journaled first and a journal error rejects it.
func (s *Store) Drop(name string) error {
	return s.DropCtx(context.Background(), name)
}

// DropCtx is Drop under a trace context; see PutCtx for the WAL-wait
// attribution contract.
func (s *Store) DropCtx(ctx context.Context, name string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.logged(ctx, func(j Journal) error { return j.JournalDrop(name) }); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.bats, name)
	s.bumpEpochLocked(name)
	s.dropIndex(name)
	return nil
}

// Names returns the sorted names of all registered BATs.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.bats))
	for n := range s.bats {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered BATs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.bats)
}

// Stats summarizes the store contents.
type Stats struct {
	// BATs is the number of registered BATs.
	BATs int
	// BUNs is the total association count across all BATs.
	BUNs int
	// ByPrefix counts BUNs per first path segment of the BAT name
	// (before the first '/').
	ByPrefix map[string]int
}

// Stats computes summary statistics over the store.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{ByPrefix: map[string]int{}}
	for name, b := range s.bats {
		st.BATs++
		st.BUNs += b.Len()
		prefix := name
		if i := strings.IndexByte(name, '/'); i >= 0 {
			prefix = name[:i]
		}
		st.ByPrefix[prefix] += b.Len()
	}
	return st
}

// batFileMagic identifies the snapshot file format.
const batFileMagic = uint32(0xC0B2A001)

// WriteTo serializes the BAT in the kernel snapshot format.
func (b *BAT) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	if err := writeU32(cw, batFileMagic); err != nil {
		return cw.n, err
	}
	if err := writeU32(cw, uint32(b.head.Type())<<8|uint32(b.tail.Type())); err != nil {
		return cw.n, err
	}
	if err := writeU32(cw, uint32(b.Len())); err != nil {
		return cw.n, err
	}
	n := b.Len()
	if b.head.Type() == Void && b.tail.Type() == Void {
		n = 0 // no bytes stand behind the rows of a [void,void] BAT
	}
	for i := 0; i < n; i++ {
		// Serialize by declared column type: a void column boxes its
		// elements as OIDs, which the reader skips entirely.
		if b.head.Type() != Void {
			if err := WriteValue(cw, b.Head(i)); err != nil {
				return cw.n, err
			}
		}
		if b.tail.Type() != Void {
			if err := WriteValue(cw, b.Tail(i)); err != nil {
				return cw.n, err
			}
		}
	}
	return cw.n, bw.Flush()
}

// ReadBAT deserializes a BAT from the kernel snapshot format.
func ReadBAT(r io.Reader) (*BAT, error) {
	avail := available(r)
	br := bufio.NewReader(r)
	magic, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if magic != batFileMagic {
		return nil, fmt.Errorf("monet: bad snapshot magic %#x", magic)
	}
	types, err := readU32(br)
	if err != nil {
		return nil, err
	}
	ht, tt := Type(types>>8), Type(types&0xff)
	if types > 0xffff || ht > BlobT || tt > BlobT {
		return nil, fmt.Errorf("monet: bad snapshot column types %#x", types)
	}
	n, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if ht == Void && tt == Void {
		// No bytes stand behind these rows: do not loop over a count.
		return &BAT{head: &voidColumn{n: int(n)}, tail: &voidColumn{n: int(n)}}, nil
	}
	// The count comes from disk: preallocate no more rows than the
	// input could hold, and let append grow the rest.
	b := NewBATCap(ht, tt, int(min(int64(n), avail/(minWidth(ht)+minWidth(tt)))))
	for i := uint32(0); i < n; i++ {
		h, err := ReadValue(br, ht)
		if err != nil {
			return nil, err
		}
		t, err := ReadValue(br, tt)
		if err != nil {
			return nil, err
		}
		b.head.Append(h)
		b.tail.Append(t)
	}
	return b, nil
}

// Snapshot writes every BAT in the store to dir, one file per BAT.
// The snapshot is written into a temporary sibling directory, synced,
// and atomically renamed into place, so a crash mid-snapshot never
// leaves a half-written, unloadable snapshot at dir: readers observe
// either the previous complete snapshot or the new one.
func (s *Store) Snapshot(dir string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapshotLocked(dir)
}

// Checkpoint writes an atomic snapshot of the store to dir while
// holding the writer mutex, so no mutation — and no journal record —
// can interleave with the snapshot, and a read lock, so queries keep
// running while it is written. If prepare is non-nil it runs under the
// same locks before any state is written — the durability layer uses
// it to rotate the write-ahead log at the exact point the snapshot
// captures, making "snapshot + later segments" a consistent recovery
// pair.
func (s *Store) Checkpoint(dir string, prepare func() error) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if prepare != nil {
		if err := prepare(); err != nil {
			return err
		}
	}
	return s.snapshotLocked(dir)
}

// snapshotLocked writes the snapshot with at least a read lock held.
func (s *Store) snapshotLocked(dir string) error {
	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(parent, ".snap-tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for name, b := range s.bats {
		if err := writeBATFile(filepath.Join(tmp, encodeBATFileName(name)), b); err != nil {
			return err
		}
	}
	if err := syncDir(tmp); err != nil {
		return err
	}
	// Swap the finished snapshot into place. If dir already holds an
	// old snapshot, move it aside first (rename cannot replace a
	// non-empty directory); the one crash window between the two
	// renames leaves no dir at all — never a torn one.
	if _, err := os.Stat(dir); err == nil {
		old := dir + ".old"
		if err := os.RemoveAll(old); err != nil {
			return err
		}
		if err := os.Rename(dir, old); err != nil {
			return err
		}
		defer os.RemoveAll(old)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	return syncDir(parent)
}

// writeBATFile writes one BAT to path and fsyncs it.
func writeBATFile(path string, b *BAT) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := b.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadSnapshot reads every BAT file from dir into the store,
// replacing same-named BATs.
func (s *Store) LoadSnapshot(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".bat") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		b, err := ReadBAT(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("monet: loading %s: %w", e.Name(), err)
		}
		if err := s.Put(decodeBATFileName(e.Name()), b); err != nil {
			return err
		}
	}
	return nil
}

// encodeBATFileName maps a BAT name to a filesystem-safe file name.
func encodeBATFileName(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
			sb.WriteRune(r)
		default:
			fmt.Fprintf(&sb, "%%%04x", r)
		}
	}
	sb.WriteString(".bat")
	return sb.String()
}

func decodeBATFileName(file string) string {
	name := strings.TrimSuffix(file, ".bat")
	var sb strings.Builder
	for i := 0; i < len(name); {
		if name[i] == '%' && i+5 <= len(name) {
			var r rune
			if _, err := fmt.Sscanf(name[i+1:i+5], "%04x", &r); err == nil {
				sb.WriteRune(r)
				i += 5
				continue
			}
		}
		sb.WriteByte(name[i])
		i++
	}
	return sb.String()
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// WriteValue serializes one kernel value in the snapshot wire format:
// fixed 8 bytes for integral and float types, a u32 length prefix plus
// payload for str and blob, nothing at all for void. The write-ahead
// log and the snapshot files share this codec.
func WriteValue(w io.Writer, v Value) error {
	switch v.Typ {
	case Void:
		return nil
	case OIDT, IntT, BoolT:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
		_, err := w.Write(buf[:])
		return err
	case FloatT:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
		_, err := w.Write(buf[:])
		return err
	case StrT:
		if err := writeU32(w, uint32(len(v.S))); err != nil {
			return err
		}
		_, err := io.WriteString(w, v.S)
		return err
	case BlobT:
		if err := writeU32(w, uint32(len(v.B))); err != nil {
			return err
		}
		_, err := w.Write(v.B)
		return err
	default:
		return fmt.Errorf("monet: cannot serialize %v", v.Typ)
	}
}

// ReadValue deserializes one kernel value of type t from the snapshot
// wire format; the inverse of WriteValue.
func ReadValue(r io.Reader, t Type) (Value, error) {
	switch t {
	case Void:
		return VoidValue(), nil
	case OIDT, IntT, BoolT:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return Value{}, err
		}
		return Value{Typ: t, I: int64(binary.LittleEndian.Uint64(buf[:]))}, nil
	case FloatT:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return Value{}, err
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	case StrT:
		buf, err := readBytes(r)
		return NewStr(string(buf)), err
	case BlobT:
		buf, err := readBytes(r)
		return NewBlob(buf), err
	default:
		return Value{}, fmt.Errorf("monet: cannot deserialize %v", t)
	}
}

// maxTrustedLen bounds what a length field read from disk may make the
// reader allocate before the bytes behind it have actually arrived.
const maxTrustedLen = 1 << 16

// available bounds the bytes r can still deliver: exactly for in-memory
// readers and files (which is what snapshots and WAL records are read
// from), maxTrustedLen for anything that cannot say.
func available(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case *os.File:
		if fi, err := v.Stat(); err == nil {
			return fi.Size()
		}
	}
	return maxTrustedLen
}

// minWidth is the least number of bytes one value of type t occupies
// in the snapshot format.
func minWidth(t Type) int64 {
	switch t {
	case Void:
		return 0
	case StrT, BlobT:
		return 4
	default:
		return 8
	}
}

// readBytes reads a u32 length prefix and that many bytes. A length
// beyond maxTrustedLen is read incrementally, so a corrupt prefix
// costs an error, not a multi-gigabyte allocation.
func readBytes(r io.Reader) ([]byte, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if n <= maxTrustedLen {
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(buf) != int(n) {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}
