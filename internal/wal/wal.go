// Package wal is the durability subsystem of the Cobra VDBMS: it turns
// the paper's main-memory Monet kernel into a crash-safe store without
// giving up its in-memory execution model.
//
// Three mechanisms cooperate:
//
//   - A write-ahead log (Log): every store mutation — BAT create or
//     replace, single-association append, BAT drop, or an atomic
//     multi-BAT batch commit — is encoded as one length-prefixed,
//     CRC32-checksummed record and appended to a segmented log before
//     it becomes visible; a record that cannot be logged rejects its
//     mutation. Group commit batches concurrent fsyncs, and segments
//     rotate at a size threshold.
//
//   - Checkpointing (Manager.Checkpoint): an atomic snapshot of the
//     whole store (temp directory + rename) is written with writers
//     held off (readers keep running), the log rotates at the same
//     instant, and the CURRENT pointer file flips to the new snapshot;
//     older segments become garbage.
//
//   - Crash recovery (Open): the latest snapshot named by CURRENT is
//     loaded and the remaining log segments are replayed in order.
//     A torn or corrupt record — the signature of a crash mid-write —
//     ends replay at the last intact prefix, so recovery always yields
//     a prefix-consistent store.
//
// The package plugs into the kernel through the monet.Journal
// interface and reports wal.* metrics (record and byte counters, fsync
// latency histogram, recovery time) through internal/obs.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cobra/internal/obs"
)

// WAL metrics, registered in the Default obs registry.
var (
	cRecords   = obs.C("wal.records")
	cBytes     = obs.C("wal.bytes")
	cFsyncs    = obs.C("wal.fsyncs")
	cRotations = obs.C("wal.rotations")
	hFsync     = obs.H("wal.fsync")
)

// SyncPolicy controls when appended records are fsynced to disk.
type SyncPolicy int

// Sync policies, from safest to fastest.
const (
	// SyncAlways fsyncs before an append returns; concurrent appenders
	// share one fsync (group commit). No acknowledged record is ever
	// lost.
	SyncAlways SyncPolicy = iota
	// SyncInterval flushes and fsyncs on a background timer. A crash
	// loses at most the last flush interval of records.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS writes back at its
	// leisure. Fastest, weakest.
	SyncNone
)

// ParseSyncPolicy maps the flag spellings "always", "interval" and
// "none" to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
	}
}

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// LogOptions configures a Log.
type LogOptions struct {
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// SyncInterval is the background flush period under SyncInterval;
	// 0 defaults to 50ms.
	SyncInterval time.Duration
	// SegmentBytes rotates to a fresh segment once the current one
	// exceeds this size; 0 defaults to 64 MiB.
	SegmentBytes int64
}

// DefaultSegmentBytes is the rotation threshold used when
// LogOptions.SegmentBytes is zero.
const DefaultSegmentBytes = 64 << 20

// defaultSyncInterval backs LogOptions.SyncInterval.
const defaultSyncInterval = 50 * time.Millisecond

// Log is a segmented, checksummed write-ahead log. Records are opaque
// byte payloads framed as
//
//	u32 length | u32 CRC32(payload) | payload
//
// in little endian, appended to files named wal-<seq>.log. Log is safe
// for concurrent use.
type Log struct {
	dir  string
	opts LogOptions

	mu      sync.Mutex // guards file state and the frame buffer
	f       *os.File
	seq     uint64 // sequence number of the open segment
	size    int64  // bytes written to the open segment
	written uint64 // LSN (count) of records appended
	closed  bool
	frame   []byte // reused header+payload buffer of the record being appended
	werr    error  // sticky write failure: the segment may end in a torn record

	syncMu  sync.Mutex // serializes group commit
	synced  uint64     // LSN covered by the last fsync
	syncErr error      // sticky fsync failure

	stop chan struct{}
	done chan struct{}
}

// segmentName formats the file name of segment seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("wal-%08d.log", seq)
}

// parseSegmentName extracts the sequence number from a segment file
// name, reporting ok=false for foreign files.
func parseSegmentName(name string) (seq uint64, ok bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Segments lists the log segments in dir in ascending sequence order.
func Segments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// OpenLog opens (creating if needed) a log directory for appending. A
// fresh segment is always started — one past the highest existing
// sequence — so a possibly-torn tail from a previous crash is never
// appended to.
func OpenLog(dir string, opts LogOptions) (*Log, error) {
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncInterval == 0 {
		opts.SyncInterval = defaultSyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if len(seqs) > 0 {
		next = seqs[len(seqs)-1] + 1
	}
	l := &Log{dir: dir, opts: opts, seq: next - 1}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// openSegmentLocked closes the current segment file (if any) and opens
// segment seq. Callers hold l.mu (or own the log exclusively).
func (l *Log) openSegmentLocked(seq uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.seq = seq
	l.size = 0
	return syncDir(l.dir)
}

// Append adds one record to the log, rotating segments as needed, and
// syncs it according to the log's policy. Under SyncAlways it does not
// return until the record is durable (sharing fsyncs with concurrent
// appenders); under SyncInterval and SyncNone it returns once the
// record is handed to the OS.
func (l *Log) Append(payload []byte) error {
	return l.AppendRecord(func(dst []byte) ([]byte, error) { return append(dst, payload...), nil })
}

// maxKeptFrame is the largest frame buffer kept between appends; a
// record beyond it (a whole-BAT put of a long series) gives its buffer
// back to the collector.
const maxKeptFrame = 1 << 20

// AppendRecord is Append for a record encoded on the spot: encode
// extends dst with the payload, straight into the log's reused frame
// buffer, and header and payload reach the file in one write. After a
// failed write the segment may end in a torn record that would hide
// everything appended behind it, so the log fails every later append
// with the same error until it is reopened (recovery repairs the tear).
func (l *Log) AppendRecord(encode func(dst []byte) ([]byte, error)) error {
	lsn, err := l.write(encode)
	if err != nil {
		return err
	}
	if l.opts.Sync == SyncAlways {
		return l.syncTo(lsn)
	}
	return nil
}

// write frames one record into the open segment, rotating first when
// it would not fit, and returns the record's LSN.
func (l *Log) write(encode func(dst []byte) ([]byte, error)) (lsn uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, os.ErrClosed
	}
	if l.werr != nil {
		return 0, l.werr
	}
	if cap(l.frame) < 8 {
		l.frame = make([]byte, 8, 4096)
	}
	buf, err := encode(l.frame[:8])
	if err != nil {
		return 0, err
	}
	if cap(buf) <= maxKeptFrame {
		l.frame = buf
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-8))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	frame := int64(len(buf))
	if l.size > 0 && l.size+frame > l.opts.SegmentBytes {
		if err := l.openSegmentLocked(l.seq + 1); err != nil {
			return 0, err
		}
		cRotations.Inc()
	}
	if _, err := l.f.Write(buf); err != nil {
		l.werr = fmt.Errorf("wal: segment %d: %w", l.seq, err)
		return 0, l.werr
	}
	l.size += frame
	l.written++
	cRecords.Inc()
	cBytes.Add(frame)
	return l.written, nil
}

// Sync flushes and fsyncs everything appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	lsn := l.written
	l.mu.Unlock()
	return l.syncTo(lsn)
}

// syncTo implements group commit: a caller whose record was already
// covered by a concurrent fsync returns without syncing again.
func (l *Log) syncTo(lsn uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncErr != nil {
		return l.syncErr
	}
	if l.synced >= lsn {
		return nil
	}
	l.mu.Lock()
	target := l.written
	f := l.f
	closed := l.closed
	l.mu.Unlock()
	if closed || f == nil {
		return os.ErrClosed
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		l.syncErr = err
		return err
	}
	hFsync.Observe(time.Since(start))
	cFsyncs.Inc()
	l.synced = target
	return nil
}

// flushLoop services SyncInterval.
func (l *Log) flushLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync()
		case <-l.stop:
			return
		}
	}
}

// Rotate seals the current segment (flush + fsync + close) and starts
// a new one, returning the sealed segment's sequence number. Records
// appended after Rotate returns land only in the new segment.
func (l *Log) Rotate() (sealed uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, os.ErrClosed
	}
	sealed = l.seq
	if err := l.openSegmentLocked(l.seq + 1); err != nil {
		return 0, err
	}
	cRotations.Inc()
	return sealed, nil
}

// RemoveThrough deletes every segment with sequence number <= seq.
// Used after a checkpoint has made those segments redundant.
func (l *Log) RemoveThrough(seq uint64) error {
	seqs, err := Segments(l.dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s <= seq {
			if err := os.Remove(filepath.Join(l.dir, segmentName(s))); err != nil {
				return err
			}
		}
	}
	return syncDir(l.dir)
}

// Close flushes, fsyncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
		l.stop = nil
	}
	// Final sync before marking closed so buffered records survive.
	err := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReplayStats reports what a replay pass saw.
type ReplayStats struct {
	// Records is the number of intact records delivered.
	Records int
	// Torn reports whether replay stopped early at a torn or corrupt
	// record (the expected signature of a crash mid-append).
	Torn bool
	// TornSeq and TornOffset locate the torn record when Torn is set:
	// the segment it sits in and the byte offset of the last intact
	// record boundary before it. Repair truncates the segment there.
	TornSeq    uint64
	TornOffset int64
}

// Replay reads the segments of dir with sequence number >= minSeq in
// order, invoking fn for each intact record. Replay stops silently at
// the first torn or checksum-failing record — everything before it is
// a durable prefix, everything at and after it was mid-write when the
// process died. A non-nil error from fn aborts replay.
func Replay(dir string, minSeq uint64, fn func(payload []byte) error) (ReplayStats, error) {
	var st ReplayStats
	seqs, err := Segments(dir)
	if err != nil {
		return st, err
	}
	for _, seq := range seqs {
		if seq < minSeq {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return st, err
		}
		off := 0
		for off < len(data) {
			bad := len(data)-off < 8
			var n int
			if !bad {
				n = int(binary.LittleEndian.Uint32(data[off : off+4]))
				sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
				bad = n < 0 || off+8+n > len(data) ||
					crc32.ChecksumIEEE(data[off+8:off+8+n]) != sum
			}
			if bad {
				st.Torn = true
				st.TornSeq = seq
				st.TornOffset = int64(off)
				return st, nil
			}
			if err := fn(data[off+8 : off+8+n]); err != nil {
				return st, err
			}
			st.Records++
			off += 8 + n
		}
	}
	return st, nil
}

// Repair makes the on-disk log match what Replay delivered after a
// torn record was found: the torn segment is truncated back to its
// last intact record boundary and any later segments — which would
// otherwise hide behind the tear and silently vanish from future
// replays — are deleted. Call it after Replay and before appending new
// records.
func Repair(dir string, st ReplayStats) error {
	if !st.Torn {
		return nil
	}
	if err := os.Truncate(filepath.Join(dir, segmentName(st.TornSeq)), st.TornOffset); err != nil {
		return err
	}
	seqs, err := Segments(dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s > st.TornSeq {
			if err := os.Remove(filepath.Join(dir, segmentName(s))); err != nil {
				return err
			}
		}
	}
	return syncDir(dir)
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
