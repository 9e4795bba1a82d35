package monet

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestWatermarkAndAppendColumns(t *testing.T) {
	s := NewStore()
	if rows, epoch := s.Watermark("missing"); rows != 0 || epoch != 0 {
		t.Fatalf("missing BAT watermark = (%d, %d), want (0, 0)", rows, epoch)
	}
	vals := NewBAT(Void, FloatT)
	vals.MustInsert(VoidValue(), NewFloat(1))
	if err := s.Put("feat", vals); err != nil {
		t.Fatal(err)
	}
	rows0, epoch0 := s.Watermark("feat")
	if rows0 != 1 {
		t.Fatalf("rows = %d, want 1", rows0)
	}
	from, err := s.AppendColumns(context.Background(), []string{"feat"},
		[][]Value{{NewFloat(2), NewFloat(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if from != 1 {
		t.Fatalf("fromRow = %d, want 1", from)
	}
	rows1, epoch1 := s.Watermark("feat")
	if rows1 != 3 {
		t.Fatalf("rows = %d, want 3", rows1)
	}
	if epoch1 <= epoch0 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch0, epoch1)
	}
	b, _ := s.Get("feat")
	for i, want := range []float64{1, 2, 3} {
		if got := b.Tail(i).Float(); got != want {
			t.Fatalf("row %d = %g, want %g", i, got, want)
		}
	}
}

func TestAppendColumnsGeneratesOIDHeads(t *testing.T) {
	s := NewStore()
	if err := s.Put("col", NewBAT(OIDT, StrT)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendColumns(context.Background(), []string{"col"},
		[][]Value{{NewStr("a"), NewStr("b")}}); err != nil {
		t.Fatal(err)
	}
	from, err := s.AppendColumns(context.Background(), []string{"col"},
		[][]Value{{NewStr("c")}})
	if err != nil {
		t.Fatal(err)
	}
	if from != 2 {
		t.Fatalf("fromRow = %d, want 2", from)
	}
	b, _ := s.Get("col")
	for i := 0; i < 3; i++ {
		if got := b.Head(i).OID(); got != OID(i) {
			t.Fatalf("head %d = %d, want dense OID", i, got)
		}
	}
}

func TestAppendColumnsValidation(t *testing.T) {
	s := NewStore()
	s.Put("a", NewBAT(Void, FloatT))
	b := NewBAT(Void, FloatT)
	b.MustInsert(VoidValue(), NewFloat(1))
	s.Put("b", b)
	if _, err := s.AppendColumns(context.Background(), nil, nil); err == nil {
		t.Fatal("empty append did not error")
	}
	// Misaligned row counts across the group must be rejected.
	if _, err := s.AppendColumns(context.Background(), []string{"a", "b"},
		[][]Value{{NewFloat(1)}, {NewFloat(1)}}); err == nil {
		t.Fatal("misaligned BATs did not error")
	}
	// Ragged tails must be rejected.
	if _, err := s.AppendColumns(context.Background(), []string{"a", "a"},
		[][]Value{{NewFloat(1)}, {}}); err == nil {
		t.Fatal("ragged tails did not error")
	}
	if _, err := s.AppendColumns(context.Background(), []string{"missing"},
		[][]Value{{NewFloat(1)}}); err == nil {
		t.Fatal("missing BAT did not error")
	}
	// Value-typed heads cannot be generated.
	s.Put("strhead", NewBAT(StrT, StrT))
	if _, err := s.AppendColumns(context.Background(), []string{"strhead"},
		[][]Value{{NewStr("x")}}); err == nil {
		t.Fatal("str-headed append did not error")
	}
}

// TestAppendColumnsSnapshotIsolation verifies the copy-on-write
// contract: a *BAT fetched before an append never observes the
// appended rows, while a fetch after the append does.
func TestAppendColumnsSnapshotIsolation(t *testing.T) {
	s := NewStore()
	b0 := NewBAT(Void, FloatT)
	b0.MustInsert(VoidValue(), NewFloat(10))
	s.Put("feat", b0)
	before, _ := s.Get("feat")
	if _, err := s.AppendColumns(context.Background(), []string{"feat"},
		[][]Value{{NewFloat(20)}}); err != nil {
		t.Fatal(err)
	}
	if before.Len() != 1 {
		t.Fatalf("pre-append snapshot grew to %d rows", before.Len())
	}
	after, _ := s.Get("feat")
	if after.Len() != 2 || after.Tail(1).Float() != 20 {
		t.Fatalf("post-append fetch = %d rows", after.Len())
	}
}

// TestAppendColumnsConcurrentReaders hammers tail appends against
// readers iterating their own snapshots; run under -race this checks
// the copy-on-write append publishes rows safely.
func TestAppendColumnsConcurrentReaders(t *testing.T) {
	s := NewStore()
	s.Put("feat", NewBAT(Void, FloatT))
	s.Put("names", NewBAT(OIDT, StrT))
	const rounds = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b, err := s.Get("feat")
				if err != nil {
					continue
				}
				n := b.Len()
				sum := 0.0
				for i := 0; i < n; i++ {
					sum += b.Tail(i).Float()
				}
				nb, err := s.Get("names")
				if err != nil {
					continue
				}
				for i := 0; i < nb.Len(); i++ {
					_ = nb.Tail(i).Str()
				}
				_ = sum
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		if _, err := s.AppendColumns(context.Background(), []string{"feat"},
			[][]Value{{NewFloat(float64(i))}}); err != nil {
			t.Error(err)
			break
		}
		if _, err := s.AppendColumns(context.Background(), []string{"names"},
			[][]Value{{NewStr(fmt.Sprintf("n%d", i))}}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	rows, _ := s.Watermark("feat")
	if rows != rounds {
		t.Fatalf("rows = %d, want %d", rows, rounds)
	}
}

func TestAppendColumnsJournaled(t *testing.T) {
	s := NewStore()
	s.Put("feat", NewBAT(Void, FloatT))
	j := &recordingJournal{}
	s.SetJournal(j)
	if _, err := s.AppendColumns(context.Background(), []string{"feat"},
		[][]Value{{NewFloat(1), NewFloat(2)}}); err != nil {
		t.Fatal(err)
	}
	// One record for the whole chunk, never one per row.
	if len(j.appends) != 0 || j.batches != 1 || j.batchRows != 2 {
		t.Fatalf("journaled %d appends and %d batches of %d rows, want 0 appends and 1 batch of 2 rows",
			len(j.appends), j.batches, j.batchRows)
	}
}

type recordingJournal struct {
	appends   []string
	batches   int
	batchRows int
}

func (j *recordingJournal) JournalPut(name string, b *BAT) error { return nil }
func (j *recordingJournal) JournalAppend(name string, h, t Value) error {
	j.appends = append(j.appends, name)
	return nil
}
func (j *recordingJournal) JournalDrop(name string) error { return nil }
func (j *recordingJournal) JournalBatch(w *WriteBatch) error {
	j.batches++
	for i := range w.Entries() {
		j.batchRows += w.Entries()[i].Rows()
	}
	return nil
}
