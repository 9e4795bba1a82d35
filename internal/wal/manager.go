package wal

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"cobra/internal/monet"
	"cobra/internal/obs"
)

// Durability metrics, registered in the Default obs registry.
var (
	cCheckpoints   = obs.C("wal.checkpoints")
	cReplayed      = obs.C("wal.recovery_records")
	cTornTails     = obs.C("wal.recovery_torn_tails")
	gRecoveryNs    = obs.G("wal.recovery_ns")
	hCheckpoint    = obs.H("wal.checkpoint")
	cJournalFailed = obs.C("wal.journal_failures")
)

// Options configures a Manager.
type Options struct {
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the flush period under SyncInterval (default 50ms).
	SyncInterval time.Duration
	// SegmentBytes is the WAL rotation threshold (default 64 MiB).
	SegmentBytes int64
	// CheckpointEvery, when positive, starts a background goroutine
	// that checkpoints at this period. Zero means checkpoints happen
	// only when Checkpoint is called (e.g. via the server's CHECKPOINT
	// command) and at Close.
	CheckpointEvery time.Duration
}

// RecoveryStats describes what Open found on disk.
type RecoveryStats struct {
	// SnapshotBATs is the number of BATs loaded from the checkpoint
	// snapshot (0 when starting fresh).
	SnapshotBATs int
	// Replayed is the number of intact WAL records applied on top.
	Replayed int
	// Torn reports whether replay ended at a torn or corrupt record.
	Torn bool
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// Manager owns the durable state of one monet.Store: a data directory
// holding checkpoint snapshots, a CURRENT pointer file, and a wal/
// subdirectory of log segments. It implements monet.Journal, so after
// Open attaches it to the store every mutation is write-ahead logged.
//
// Layout of the data directory:
//
//	CURRENT            "snap-<seq> <minWALSeq>\n" — the live snapshot
//	snap-<seq>/        one .bat file per BAT (atomic: temp dir + rename)
//	wal/wal-<seq>.log  framed, checksummed mutation records
type Manager struct {
	dir   string
	store *monet.Store
	log   *Log
	opts  Options

	mu      sync.Mutex // serializes Checkpoint and Close
	snapSeq uint64     // sequence of the live snapshot
	closed  bool

	// Recovery holds the statistics of the Open that built this
	// manager.
	Recovery RecoveryStats

	stop chan struct{}
	done chan struct{}
}

// currentFile is the pointer file naming the live snapshot and the
// first WAL segment to replay on top of it.
const currentFile = "CURRENT"

// Open recovers the durable state in dir into store and returns a
// manager ready for logging: it loads the snapshot named by CURRENT
// (if any), replays the remaining WAL segments in order — stopping at
// a torn tail — attaches itself as the store's journal, and starts the
// background checkpointer when configured. The store should be empty;
// recovered BATs are Put into it.
func Open(dir string, store *monet.Store, opts Options) (*Manager, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{dir: dir, store: store, opts: opts}

	snapName, minSeq, err := readCurrent(filepath.Join(dir, currentFile))
	if err != nil {
		return nil, err
	}
	if snapName != "" {
		if err := store.LoadSnapshot(filepath.Join(dir, snapName)); err != nil {
			return nil, fmt.Errorf("wal: loading snapshot %s: %w", snapName, err)
		}
		m.snapSeq = snapSeqOf(snapName)
		m.Recovery.SnapshotBATs = store.Len()
	}

	walDir := filepath.Join(dir, "wal")
	st, err := Replay(walDir, minSeq, func(payload []byte) error {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return err
		}
		return m.apply(rec)
	})
	if err != nil {
		return nil, fmt.Errorf("wal: replay: %w", err)
	}
	m.Recovery.Replayed = st.Records
	m.Recovery.Torn = st.Torn
	cReplayed.Add(int64(st.Records))
	if st.Torn {
		cTornTails.Inc()
		// Truncate the tear so future replays read past this point
		// into segments appended from now on.
		if err := Repair(walDir, st); err != nil {
			return nil, fmt.Errorf("wal: repair: %w", err)
		}
	}

	m.log, err = OpenLog(walDir, LogOptions{
		Sync:         opts.Sync,
		SyncInterval: opts.SyncInterval,
		SegmentBytes: opts.SegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	m.gc(snapName)
	store.SetJournal(m)

	m.Recovery.Elapsed = time.Since(start)
	gRecoveryNs.Set(int64(m.Recovery.Elapsed))

	if opts.CheckpointEvery > 0 {
		m.stop = make(chan struct{})
		m.done = make(chan struct{})
		go m.checkpointLoop()
	}
	return m, nil
}

// apply replays one decoded record into the store. The journal is not
// attached yet, so nothing is re-logged. A batch goes through the same
// Store.Commit validation as the original did, pinned to the base rows
// the log recorded: an entry that does not start exactly where its BAT
// ends is a recovery error, never a silent skip.
func (m *Manager) apply(rec Record) error {
	switch rec.Op {
	case OpPut:
		return m.store.Put(rec.Name, rec.BAT)
	case OpAppend:
		b, err := m.store.Get(rec.Name)
		if err != nil {
			return err
		}
		return b.Insert(rec.Head, rec.Tail)
	case OpDrop:
		return m.store.Drop(rec.Name)
	case OpBatch:
		return m.store.Commit(context.Background(), rec.Batch)
	default:
		return fmt.Errorf("wal: apply: unknown op %d", rec.Op)
	}
}

// journal appends one record, encoded straight into the log's frame
// buffer. The store rejects the mutation when it fails.
func (m *Manager) journal(encode func(dst []byte) ([]byte, error)) error {
	if err := m.log.AppendRecord(encode); err != nil {
		cJournalFailed.Inc()
		return err
	}
	return nil
}

// JournalPut implements monet.Journal.
func (m *Manager) JournalPut(name string, b *monet.BAT) error {
	return m.journal(func(dst []byte) ([]byte, error) { return appendPut(dst, name, b) })
}

// JournalAppend implements monet.Journal.
func (m *Manager) JournalAppend(name string, h, t monet.Value) error {
	return m.journal(func(dst []byte) ([]byte, error) { return appendAppend(dst, name, h, t) })
}

// JournalDrop implements monet.Journal.
func (m *Manager) JournalDrop(name string) error {
	return m.journal(func(dst []byte) ([]byte, error) { return appendDrop(dst, name), nil })
}

// JournalBatch implements monet.Journal: the whole batch is one
// record, so one write and — under SyncAlways — one fsync.
func (m *Manager) JournalBatch(w *monet.WriteBatch) error {
	return m.journal(func(dst []byte) ([]byte, error) { return appendBatch(dst, w) })
}

// Checkpoint writes an atomic snapshot of the store, flips CURRENT to
// it, and deletes the WAL segments the snapshot supersedes. The
// snapshot and the log rotation happen under the store's writer mutex
// — no mutation is between its log record and its apply — so the
// snapshot plus the segments after the rotation point are always a
// consistent recovery pair. Queries keep running throughout; mutations
// wait; concurrent checkpoints serialize.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	start := time.Now()
	newSeq := m.snapSeq + 1
	snapName := fmt.Sprintf("snap-%08d", newSeq)
	var sealed uint64
	err := m.store.Checkpoint(filepath.Join(m.dir, snapName), func() error {
		var err error
		sealed, err = m.log.Rotate()
		return err
	})
	if err != nil {
		return err
	}
	// Flip CURRENT: recovery now loads the new snapshot and replays
	// only segments after the rotation point. Until this rename lands,
	// the old CURRENT + full WAL remain a valid recovery pair.
	if err := writeCurrent(filepath.Join(m.dir, currentFile), snapName, sealed+1); err != nil {
		return err
	}
	m.snapSeq = newSeq
	// Everything at or before the sealed segment is now redundant.
	if err := m.log.RemoveThrough(sealed); err != nil {
		return err
	}
	m.gc(snapName)
	cCheckpoints.Inc()
	hCheckpoint.Observe(time.Since(start))
	return nil
}

// checkpointLoop services Options.CheckpointEvery.
func (m *Manager) checkpointLoop() {
	defer close(m.done)
	t := time.NewTicker(m.opts.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = m.Checkpoint()
		case <-m.stop:
			return
		}
	}
}

// Close stops the background checkpointer, takes a final checkpoint so
// restart needs no replay, and closes the log.
func (m *Manager) Close() error {
	if m.stop != nil {
		close(m.stop)
		<-m.done
		m.stop = nil
	}
	err := m.Checkpoint()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return os.ErrClosed
	}
	m.closed = true
	m.store.SetJournal(nil)
	if cerr := m.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the manager's data directory.
func (m *Manager) Dir() string { return m.dir }

// gc removes snapshot directories other than the live one and stale
// temp dirs left by crashes mid-checkpoint. Best-effort: failures are
// ignored, the orphans are merely disk garbage.
func (m *Manager) gc(liveSnap string) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		stale := e.IsDir() && name != liveSnap &&
			(strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, ".snap-tmp-"))
		if stale {
			os.RemoveAll(filepath.Join(m.dir, name))
		}
	}
}

// readCurrent parses the CURRENT pointer file. A missing file is a
// fresh database: empty snapshot name, replay from segment 0.
func readCurrent(path string) (snap string, minSeq uint64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return "", 0, nil
	}
	if err != nil {
		return "", 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) != 2 {
		return "", 0, fmt.Errorf("wal: malformed CURRENT %q", strings.TrimSpace(string(data)))
	}
	seq, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("wal: malformed CURRENT wal seq: %w", err)
	}
	return fields[0], seq, nil
}

// writeCurrent atomically replaces the CURRENT pointer file.
func writeCurrent(path, snap string, minSeq uint64) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("%s %d\n", snap, minSeq)), 0o644); err != nil {
		return err
	}
	f, err := os.Open(tmp)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	f.Close()
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// snapSeqOf parses the sequence number out of a snap-<seq> directory
// name, returning 0 for foreign names.
func snapSeqOf(name string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(name, "snap-"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}
