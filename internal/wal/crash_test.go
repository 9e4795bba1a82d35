package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/monet"
	"cobra/internal/synth"
)

// The crash differential tests air a short race through the real ingest
// path — f1.LiveIngestor over a journaled catalog — cut the log at
// chosen offsets as kill -9 would, recover, and compare the recovered
// store BAT for BAT with what the same run held in memory after k whole
// ticks. Copy-on-write commits make every *BAT an immutable snapshot,
// so the reference states cost nothing to keep.

const crashVideo = "live-gp"

// crashSteps is the airing schedule. One long tick airs the quiet part
// of the race; the two short ticks after it are the ones the sweeps
// cut. The tick ending at 40.05 s carries three events (the finish and
// a two-word caption complete at 40.00 s), the last one only samples.
var crashSteps = []float64{39.85, 0.2, 0.2}

// crashFeatures extracts the race the tests air, once for all of them.
var crashFeatures = sync.OnceValues(func() (*f1.Features, error) {
	return f1.Extract(synth.GenerateRace(synth.GermanGP, 48, 3), f1.Options{Seed: 3})
})

func newCrashIngestor(t *testing.T, store *monet.Store) *f1.LiveIngestor {
	t.Helper()
	f, err := crashFeatures()
	if err != nil {
		t.Fatal(err)
	}
	ing, err := f1.NewLiveIngestorFrom(cobra.NewCatalog(store), crashVideo, f)
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

type storeState map[string]*monet.BAT

func stateOf(s *monet.Store) storeState {
	st := storeState{}
	for _, n := range s.Names() {
		st[n], _ = s.Get(n)
	}
	return st
}

// airedRace is one journaled run: the single segment it wrote, the
// segment's size after set-up and after every tick, and the store's
// state at each of those points.
type airedRace struct {
	segment []byte
	ends    []int64
	states  []storeState
}

// ticksWithin returns how many whole ticks a segment cut at off holds,
// or -1 when the cut falls inside the set-up records.
func (a *airedRace) ticksWithin(off int64) int {
	k := -1
	for i, end := range a.ends {
		if end <= off {
			k = i
		}
	}
	return k
}

// airRace airs crashSteps into a fresh data directory. journal, when
// non-nil, wraps the manager as the store's journal (the legacy
// per-row writer).
func airRace(t *testing.T, journal func(*Manager) monet.Journal) *airedRace {
	t.Helper()
	dir := t.TempDir()
	store := monet.NewStore()
	m, err := Open(dir, store, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if journal != nil {
		store.SetJournal(journal(m))
	}
	seg := filepath.Join(dir, "wal", segmentName(1))
	a := &airedRace{}
	mark := func() {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		a.ends = append(a.ends, fi.Size())
		a.states = append(a.states, stateOf(store))
	}
	ing := newCrashIngestor(t, store)
	mark()
	for _, dt := range crashSteps {
		if _, err := ing.Step(dt); err != nil {
			t.Fatal(err)
		}
		mark()
	}
	if err := m.log.Close(); err != nil { // no final checkpoint: the log is the only copy
		t.Fatal(err)
	}
	if a.segment, err = os.ReadFile(seg); err != nil {
		t.Fatal(err)
	}
	if int64(len(a.segment)) != a.ends[len(a.ends)-1] {
		t.Fatalf("segment is %d bytes, last tick ended at %d", len(a.segment), a.ends[len(a.ends)-1])
	}
	return a
}

// recoverCut writes the first off bytes of the segment into a fresh
// data directory and recovers it.
func (a *airedRace) recoverCut(t *testing.T, off int64) (*monet.Store, *Manager) {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", segmentName(1)), a.segment[:off], 0o644); err != nil {
		t.Fatal(err)
	}
	store := monet.NewStore()
	m, err := Open(dir, store, Options{Sync: SyncNone})
	if err != nil {
		t.Fatalf("offset %d: recovery failed: %v", off, err)
	}
	t.Cleanup(func() { _ = m.log.Close() })
	return store, m
}

func sameValue(a, b monet.Value) bool {
	if a.Typ == monet.FloatT && b.Typ == monet.FloatT {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a.Typ == b.Typ && monet.Equal(a, b)
}

// requireState fails unless the store holds exactly the BATs of want,
// row for row.
func requireState(t *testing.T, at string, s *monet.Store, want storeState) {
	t.Helper()
	if got := s.Names(); len(got) != len(want) {
		t.Fatalf("%s: recovered %d BATs %v, want %d", at, len(got), got, len(want))
	}
	for name, wb := range want {
		gb, err := s.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if gb.Len() != wb.Len() || gb.HeadType() != wb.HeadType() || gb.TailType() != wb.TailType() {
			t.Fatalf("%s: %s is [%v,%v] with %d rows, want [%v,%v] with %d", at, name,
				gb.HeadType(), gb.TailType(), gb.Len(), wb.HeadType(), wb.TailType(), wb.Len())
		}
		for i := 0; i < wb.Len(); i++ {
			if !sameValue(gb.Head(i), wb.Head(i)) || !sameValue(gb.Tail(i), wb.Tail(i)) {
				t.Fatalf("%s: %s row %d = (%v,%v), want (%v,%v)", at, name, i, gb.Head(i), gb.Tail(i), wb.Head(i), wb.Tail(i))
			}
		}
	}
}

// requireWholeTick asserts the tick invariant directly: all 19 feature
// series end at the clip the duration watermark names, and the five
// event columns have one length.
func requireWholeTick(t *testing.T, at string, s *monet.Store) {
	t.Helper()
	cat := cobra.NewCatalog(s)
	v, err := cat.Video(crashVideo)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	clips := int(v.Duration/f1.ClipDur + 1e-9)
	for _, name := range f1.FeatureNames {
		if rows, _ := s.Watermark(cobra.FeatureBATName(crashVideo, name)); rows != clips {
			t.Fatalf("%s: feature %s has %d rows, the duration watermark %g s names %d", at, name, rows, v.Duration, clips)
		}
	}
	evRows, _ := s.Watermark(cobra.EventBATName(crashVideo, "type"))
	for _, col := range []string{"start", "end", "conf", "attrs"} {
		if rows, _ := s.Watermark(cobra.EventBATName(crashVideo, col)); rows != evRows {
			t.Fatalf("%s: event column %s has %d rows, type has %d", at, col, rows, evRows)
		}
	}
}

// chunkBetween rebuilds the live chunk that took the run from state
// from to state to.
func chunkBetween(t *testing.T, from, to storeState) cobra.LiveChunk {
	t.Helper()
	next := monet.NewStore()
	for name, b := range to {
		if err := next.Put(name, b); err != nil {
			t.Fatal(err)
		}
	}
	cat := cobra.NewCatalog(next)
	v, err := cat.Video(crashVideo)
	if err != nil {
		t.Fatal(err)
	}
	ch := cobra.LiveChunk{Duration: v.Duration}
	for _, name := range f1.FeatureNames {
		rows := 0
		if b, ok := from[cobra.FeatureBATName(crashVideo, name)]; ok {
			rows = b.Len()
		}
		f, err := cat.Feature(crashVideo, name)
		if err != nil {
			t.Fatal(err)
		}
		ch.Features = append(ch.Features, cobra.FeatureSamples{Name: name, Rate: f.SampleRate, Values: f.Values[rows:]})
	}
	evRows := 0
	if b, ok := from[cobra.EventBATName(crashVideo, "type")]; ok {
		evRows = b.Len()
	}
	ch.Events, _ = cat.EventsSince(crashVideo, "", evRows)
	return ch
}

// TestCrashAtEveryOffsetRecoversWholeTicks cuts the log at every byte
// offset inside the last two tick records. Whatever the offset, the
// recovered store is exactly the first k whole ticks — never part of a
// tick — and committing tick k+1 on top of it reproduces the
// never-crashed state after k+1 ticks, so no cut can leave the ingest
// path stuck on misaligned BATs.
func TestCrashAtEveryOffsetRecoversWholeTicks(t *testing.T) {
	a := airRace(t, nil)
	n := len(crashSteps)
	if evs := a.states[2][cobra.EventBATName(crashVideo, "type")]; evs == nil || evs.Len() != 3 {
		t.Fatalf("the tick ending at 40.05 s should carry the race's first three events, got %v", evs)
	}
	// One Step is one record: each tick's bytes are exactly one frame.
	for i := 0; i < n; i++ {
		if frame := 8 + int64(binary.LittleEndian.Uint32(a.segment[a.ends[i]:])); a.ends[i]+frame != a.ends[i+1] {
			t.Fatalf("tick %d wrote %d bytes, its first frame is %d: not one record per Step", i+1, a.ends[i+1]-a.ends[i], frame)
		}
	}
	step := int64(1)
	if testing.Short() {
		step = 97
	}
	first := a.ends[n-2]
	for off := first; off <= int64(len(a.segment)); off += step {
		k := a.ticksWithin(off)
		at := fmt.Sprintf("offset %d (%d whole ticks)", off, k)
		store, _ := a.recoverCut(t, off)
		requireState(t, at, store, a.states[k])
		requireWholeTick(t, at, store)
		if k == n {
			continue
		}
		if _, err := cobra.NewCatalog(store).AppendLive(crashVideo, chunkBetween(t, a.states[k], a.states[k+1])); err != nil {
			t.Fatalf("%s: the next tick failed on the recovered store: %v", at, err)
		}
		requireState(t, at+" + next tick", store, a.states[k+1])
	}

	// And the real thing once: a crash in the middle of the last record,
	// then a LiveIngestor stepping on what was recovered.
	off := (a.ends[n-1] + a.ends[n]) / 2
	store, _ := a.recoverCut(t, off)
	if _, err := newCrashIngestor(t, store).Step(0.2); err != nil {
		t.Fatalf("Step on the store recovered from a mid-record crash: %v", err)
	}
}

// refusingJournal passes records through until refuse is set.
type refusingJournal struct {
	*Manager
	refuse bool
}

func (j *refusingJournal) JournalBatch(w *monet.WriteBatch) error {
	if j.refuse {
		return os.ErrClosed
	}
	return j.Manager.JournalBatch(w)
}

// TestStepRejectedByLogLeavesCommittedWatermark: when the log refuses
// a tick, Step reports the error and the last committed watermark, the
// store is exactly what it was, and the ingestor — whose feed has moved
// on — refuses to step again.
func TestStepRejectedByLogLeavesCommittedWatermark(t *testing.T) {
	store := monet.NewStore()
	m, err := Open(t.TempDir(), store, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j := &refusingJournal{Manager: m}
	store.SetJournal(j)
	ing := newCrashIngestor(t, store)
	committed, err := ing.Step(40.05)
	if err != nil {
		t.Fatal(err)
	}
	before := stateOf(store)
	j.refuse = true
	for i := 0; i < 2; i++ {
		w, err := ing.Step(0.2)
		if !errors.Is(err, os.ErrClosed) || w != committed {
			t.Fatalf("Step %d with the log refusing = (%g, %v), want (%g, the log's error)", i, w, err, committed)
		}
		j.refuse = false // the second Step must fail even though the log is back
	}
	requireState(t, "after rejected ticks", store, before)
	requireWholeTick(t, "after rejected ticks", store)
}

// legacyJournal writes what Store.AppendColumns journaled before batch
// commits existed: one OpAppend per row per column, one OpPut per put,
// each its own record. A crash can then fall between the records of a
// tick.
type legacyJournal struct{ *Manager }

func (j legacyJournal) JournalBatch(w *monet.WriteBatch) error {
	for _, e := range w.Entries() {
		if e.Put != nil {
			if err := j.JournalPut(e.Name, e.Put); err != nil {
				return err
			}
			continue
		}
		for r := 0; r < e.Rows(); r++ {
			head, tail := monet.VoidValue(), monet.Value{}
			if strings.HasPrefix(e.Name, "cobra/event/") {
				head = monet.NewOID(monet.OID(e.Base + r))
			}
			if e.Type == monet.StrT {
				tail = monet.NewStr(e.Strs[r])
			} else {
				tail = monet.NewFloat(e.Floats[r])
			}
			if err := j.JournalAppend(e.Name, head, tail); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestLegacyPerRowLogCutMidTick recovers segments written the old way
// and cut at every record boundary inside the tick that carries
// events. Such a log can leave the five event columns at different
// lengths — the wal layer cannot tell a chunk's rows from
// single-association appends, so it recovers them all — but the store
// must never serve a torn tuple and the first live chunk afterwards
// must repair the relation to its common watermark instead of failing
// as "misaligned BATs" forever.
func TestLegacyPerRowLogCutMidTick(t *testing.T) {
	a := airRace(t, func(m *Manager) monet.Journal { return legacyJournal{m} })
	ref := cobra.NewCatalog(monet.NewStore())
	for name, b := range a.states[len(crashSteps)] {
		if err := ref.Store().Put(name, b); err != nil {
			t.Fatal(err)
		}
	}
	allEvents, _ := ref.EventsSince(crashVideo, "", 0)

	// Record boundaries of the event-carrying tick (the second).
	var cuts []int64
	for off := int64(0); off < a.ends[2]; {
		off += 8 + int64(binary.LittleEndian.Uint32(a.segment[off:]))
		if off > a.ends[1] {
			cuts = append(cuts, off, off-3) // the boundary, and a tear just before it
		}
	}
	if len(cuts) < 2*(19+5*3) {
		t.Fatalf("only %d cuts inside the legacy tick", len(cuts))
	}
	sawMisaligned := false
	for _, off := range cuts {
		at := fmt.Sprintf("legacy cut at %d", off)
		store, _ := a.recoverCut(t, off)
		cat := cobra.NewCatalog(store)

		// Reads serve whole tuples only: a prefix of the true event list.
		served, _ := cat.EventsSince(crashVideo, "", 0)
		if len(served) > len(allEvents) {
			t.Fatalf("%s: serves %d events, only %d exist", at, len(served), len(allEvents))
		}
		for i, e := range served {
			w := allEvents[i]
			if e.Type != w.Type || e.Interval != w.Interval || e.Confidence != w.Confidence || e.Attr("word") != w.Attr("word") {
				t.Fatalf("%s: event %d served as %+v, want %+v", at, i, e, w)
			}
		}
		lens := map[int]bool{}
		for _, col := range []string{"type", "start", "end", "conf", "attrs"} {
			rows, _ := store.Watermark(cobra.EventBATName(crashVideo, col))
			lens[rows] = true
		}
		sawMisaligned = sawMisaligned || len(lens) > 1

		// The next live chunk goes through and leaves one watermark.
		next := cobra.LiveChunk{
			Events:   []cobra.Event{{Video: crashVideo, Type: "passing", Interval: cobra.Interval{Start: 41, End: 42}, Confidence: 1}},
			Duration: 42,
		}
		for _, name := range f1.FeatureNames {
			next.Features = append(next.Features, cobra.FeatureSamples{Name: name, Rate: 1 / f1.ClipDur, Values: []float64{0.5}})
		}
		marks, err := cat.AppendLive(crashVideo, next)
		if err != nil {
			t.Fatalf("%s: the next live chunk failed: %v", at, err)
		}
		if marks.EventRow != len(served) {
			t.Fatalf("%s: the repaired relation starts the new tuple at row %d, %d whole tuples were served", at, marks.EventRow, len(served))
		}
		for _, col := range []string{"type", "start", "end", "conf", "attrs"} {
			if rows, _ := store.Watermark(cobra.EventBATName(crashVideo, col)); rows != len(served)+1 {
				t.Fatalf("%s: event column %s has %d rows after the repair, want %d", at, col, rows, len(served)+1)
			}
		}
		after, _ := cat.EventsSince(crashVideo, "", 0)
		if len(after) != len(served)+1 || after[len(served)].Type != "passing" {
			t.Fatalf("%s: after the repair the relation serves %d events ending in %+v", at, len(after), after[len(after)-1])
		}
	}
	if !sawMisaligned {
		t.Fatal("no cut left the event columns misaligned: the test no longer reaches the case it exists for")
	}
}
