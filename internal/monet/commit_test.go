package monet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// tickBatch builds the kernel-level shape of one ingest tick: one row
// for each of two independent series, one tuple of a two-column
// relation, and a whole-BAT put of the watermark.
func tickBatch(i int) *WriteBatch {
	var w WriteBatch
	w.AppendGroup(FloatTail("s1", []float64{float64(i)}))
	w.AppendGroup(FloatTail("s2", []float64{float64(-i)}))
	w.AppendGroup(StrTail("rel/type", []string{"t"}), FloatTail("rel/start", []float64{float64(i)}))
	mark := NewBAT(Void, FloatT)
	mark.MustInsert(VoidValue(), NewFloat(float64(i)))
	w.Put("mark", mark)
	return &w
}

var tickNames = []string{"s1", "s2", "rel/type", "rel/start", "mark"}

func newTickStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	for name, b := range map[string]*BAT{
		"s1": NewBAT(Void, FloatT), "s2": NewBAT(Void, FloatT),
		"rel/type": NewBAT(OIDT, StrT), "rel/start": NewBAT(OIDT, FloatT),
		"mark": NewBAT(Void, FloatT),
	} {
		if err := s.Put(name, b); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

type watermark struct {
	rows  int
	epoch uint64
}

func watermarks(s *Store) map[string]watermark {
	out := map[string]watermark{}
	for _, n := range tickNames {
		rows, epoch := s.Watermark(n)
		out[n] = watermark{rows, epoch}
	}
	return out
}

// failingJournal fails the failAt-th JournalBatch (1-based) and accepts
// everything else.
type failingJournal struct {
	recordingJournal
	failAt int
}

var errDiskFull = errors.New("disk full")

func (j *failingJournal) JournalBatch(w *WriteBatch) error {
	if j.batches+1 == j.failAt {
		j.failAt = 0
		return errDiskFull
	}
	return j.recordingJournal.JournalBatch(w)
}

// TestCommitRejectedWhenJournalFails is the write-ahead failure rule: a
// batch whose record cannot be logged is not applied — no BAT length,
// epoch or watermark moves — and committing it again succeeds.
func TestCommitRejectedWhenJournalFails(t *testing.T) {
	s := newTickStore(t)
	j := &failingJournal{failAt: 2}
	s.SetJournal(j)
	ctx := context.Background()
	if err := s.Commit(ctx, tickBatch(1)); err != nil {
		t.Fatal(err)
	}
	before, errsBefore := watermarks(s), cJournalErr.Value()
	held, _ := s.Get("s1")

	w := tickBatch(2)
	if err := s.Commit(ctx, w); !errors.Is(err, errDiskFull) {
		t.Fatalf("Commit with a failing journal returned %v, want the journal's error", err)
	}
	if got := cJournalErr.Value() - errsBefore; got != 1 {
		t.Fatalf("monet.store.journal_errors moved by %d, want 1", got)
	}
	for name, want := range before {
		if rows, epoch := s.Watermark(name); rows != want.rows || epoch != want.epoch {
			t.Fatalf("%s after rejected commit = (%d rows, epoch %d), want (%d, %d)", name, rows, epoch, want.rows, want.epoch)
		}
	}
	if b, _ := s.Get("mark"); b.Tail(0).Float() != 1 {
		t.Fatalf("watermark BAT moved to %g by a rejected commit", b.Tail(0).Float())
	}
	if held.Len() != 1 {
		t.Fatalf("reader's snapshot grew to %d rows", held.Len())
	}

	if err := s.Commit(ctx, w); err != nil {
		t.Fatalf("second Commit of the same batch: %v", err)
	}
	for name, was := range before {
		rows, epoch := s.Watermark(name)
		wantRows := was.rows + 1
		if name == "mark" {
			wantRows = 1
		}
		if rows != wantRows || epoch <= was.epoch {
			t.Fatalf("%s after retried commit = (%d rows, epoch %d), want %d rows and a newer epoch than %d", name, rows, epoch, wantRows, was.epoch)
		}
	}
	if b, _ := s.Get("s1"); b.Tail(1).Float() != 2 {
		t.Fatalf("s1 row 1 = %g, want 2 (the rejected attempt must leave no trace)", b.Tail(1).Float())
	}
	if j.batches != 2 {
		t.Fatalf("journal holds %d batches, want 2", j.batches)
	}
}

// TestCommitValidatesBeforeJournaling covers the errors staging must
// catch: nothing reaches the journal and nothing is applied.
func TestCommitValidatesBeforeJournaling(t *testing.T) {
	s := newTickStore(t)
	if err := s.Commit(context.Background(), tickBatch(1)); err != nil {
		t.Fatal(err)
	}
	// A second row in s1 only: s1 and s2 are no longer aligned.
	var one WriteBatch
	one.AppendGroup(FloatTail("s1", []float64{9}))
	if err := s.Commit(context.Background(), &one); err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	s.SetJournal(j)
	before := watermarks(s)

	cases := map[string]func(w *WriteBatch){
		"no such BAT":   func(w *WriteBatch) { w.AppendGroup(FloatTail("nope", []float64{1})) },
		"type mismatch": func(w *WriteBatch) { w.AppendGroup(StrTail("s1", []string{"x"})) },
		"misaligned":    func(w *WriteBatch) { w.AppendGroup(FloatTail("s1", []float64{1}), FloatTail("s2", []float64{1})) },
		"has 2 rows": func(w *WriteBatch) {
			w.AppendGroup(StrTail("rel/type", []string{"a"}), FloatTail("rel/start", []float64{1, 2}))
		},
		"cannot generate": func(w *WriteBatch) {
			w.Put("keyed", NewBAT(StrT, FloatT))
			w.AppendGroup(FloatTail("keyed", []float64{1}))
		},
	}
	for want, build := range cases {
		// A valid entry first: it must not survive the batch's failure.
		w := tickBatch(3)
		build(w)
		err := s.Commit(context.Background(), w)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: Commit returned %v", want, err)
		}
	}
	if j.batches != 0 {
		t.Fatalf("%d invalid batches reached the journal", j.batches)
	}
	for name, want := range before {
		if rows, epoch := s.Watermark(name); rows != want.rows || epoch != want.epoch {
			t.Fatalf("%s moved to (%d, %d) by invalid batches, want (%d, %d)", name, rows, epoch, want.rows, want.epoch)
		}
	}
	if s.Has("keyed") {
		t.Fatal("a put of a rejected batch is visible")
	}
}

// TestCommitPutThenAppend checks that entries apply in order inside
// one batch: a BAT can be created and extended by the same commit.
func TestCommitPutThenAppend(t *testing.T) {
	s := NewStore()
	var w WriteBatch
	w.Put("col", NewBAT(OIDT, StrT))
	at := w.AppendGroup(StrTail("col", []string{"a", "b"}))
	if err := s.Commit(context.Background(), &w); err != nil {
		t.Fatal(err)
	}
	b, err := s.Get("col")
	if err != nil || b.Len() != 2 || b.Head(1).OID() != 1 || b.Tail(1).Str() != "b" {
		t.Fatalf("col after put+append: %v, %v", b, err)
	}
	if base := w.Entries()[at].Base; base != 0 {
		t.Fatalf("append base = %d, want 0", base)
	}
}

// TestReplayBatchChecksBaseRows is the recovery-side validation: a
// replayed append that does not start exactly where its BAT ends is an
// error, and one that does applies.
func TestReplayBatchChecksBaseRows(t *testing.T) {
	s := newTickStore(t)
	if err := s.Commit(context.Background(), tickBatch(1)); err != nil {
		t.Fatal(err)
	}
	for _, base := range []int{0, 2} {
		e := FloatTail("s1", []float64{5})
		e.Base = base
		err := s.Commit(context.Background(), ReplayBatch([]BatchEntry{e}))
		if err == nil || !strings.Contains(err.Error(), "starts at row") {
			t.Fatalf("replay at base %d over a 1-row BAT returned %v", base, err)
		}
	}
	e := FloatTail("s1", []float64{5})
	e.Base = 1
	if err := s.Commit(context.Background(), ReplayBatch([]BatchEntry{e})); err != nil {
		t.Fatal(err)
	}
	if rows, _ := s.Watermark("s1"); rows != 2 {
		t.Fatalf("s1 has %d rows after replay, want 2", rows)
	}
}

// slowJournal parks every JournalBatch until released, standing in for
// a log write waiting on its fsync.
type slowJournal struct {
	recordingJournal
	entered chan struct{}
	release chan struct{}
}

func (j *slowJournal) JournalBatch(w *WriteBatch) error {
	j.entered <- struct{}{}
	<-j.release
	return j.recordingJournal.JournalBatch(w)
}

// TestReadersProgressDuringSlowJournal pins the point of journaling
// off the readers' lock: while a Commit sits inside the journal,
// Get, Watermark and SelectRuns return — and see nothing of the batch,
// because it is not visible before its record is written.
func TestReadersProgressDuringSlowJournal(t *testing.T) {
	s := newTickStore(t)
	if err := s.Commit(context.Background(), tickBatch(1)); err != nil {
		t.Fatal(err)
	}
	j := &slowJournal{entered: make(chan struct{}), release: make(chan struct{})}
	s.SetJournal(j)
	committed := make(chan error, 1)
	go func() { committed <- s.Commit(context.Background(), tickBatch(2)) }()
	<-j.entered

	read := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			b, err := s.Get("s1")
			if err != nil || b.Len() != 1 {
				read <- errors.New("Get saw the batch before its record was written")
				return
			}
			if rows, _ := s.Watermark("rel/type"); rows != 1 {
				read <- errors.New("Watermark saw the batch before its record was written")
				return
			}
			runs, _, err := s.SelectRuns("s1", NewFloat(0), NewFloat(10))
			if err != nil || len(runs) != 1 || runs[0].Len != 1 {
				read <- errors.New("SelectRuns saw the batch before its record was written")
				return
			}
		}
		read <- nil
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("readers made no progress while a Commit was inside the journal")
	}

	close(j.release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if rows, _ := s.Watermark("s1"); rows != 2 {
		t.Fatalf("s1 has %d rows after the commit returned, want 2", rows)
	}
}
