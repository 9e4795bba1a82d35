package mil

import (
	"strings"
	"testing"

	"cobra/internal/monet"
)

// countingJournal counts the store mutations journaled.
type countingJournal struct{ records int }

func (j *countingJournal) JournalPut(string, *monet.BAT) error { j.records++; return nil }
func (j *countingJournal) JournalAppend(string, monet.Value, monet.Value) error {
	j.records++
	return nil
}
func (j *countingJournal) JournalDrop(string) error             { j.records++; return nil }
func (j *countingJournal) JournalBatch(*monet.WriteBatch) error { j.records++; return nil }

// readOnlyStore holds "x", a clustered [void,dbl] column wide enough
// for the zone map, and journals into the returned counter.
func readOnlyStore(t *testing.T) (*monet.Store, *countingJournal) {
	t.Helper()
	s := monet.NewStore()
	n := 3 * monet.MorselSize
	b := monet.NewBATCap(monet.Void, monet.FloatT, n)
	for i := 0; i < n; i++ {
		b.MustInsert(monet.VoidValue(), monet.NewFloat(float64(i)/float64(n)))
	}
	if err := s.Put("x", b); err != nil {
		t.Fatal(err)
	}
	j := &countingJournal{}
	s.SetJournal(j)
	return s, j
}

// checkStored asserts the store still holds rows rows under "x" at
// epoch, unjournaled since, and that a zone-map select over it answers
// what a naive scan of its rows does — through the kernel and MIL.
func checkStored(t *testing.T, s *monet.Store, in *Interp, j *countingJournal, rows int, epoch uint64, records int) {
	t.Helper()
	b, err := s.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != rows {
		t.Fatalf("stored BAT has %d rows, want %d", b.Len(), rows)
	}
	if got := s.Epoch("x"); got != epoch {
		t.Fatalf("epoch %d, want %d", got, epoch)
	}
	if j.records != records {
		t.Fatalf("%d journal records, want %d", j.records, records)
	}
	lo, hi := monet.NewFloat(0.25), monet.NewFloat(0.3)
	var naive []int
	for i := 0; i < b.Len(); i++ {
		if f := b.Tail(i).Float(); f >= 0.25 && f <= 0.3 {
			naive = append(naive, i)
		}
	}
	idx, info, err := s.SelectPositions("x", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if info.Path != monet.PathZoneMap {
		t.Fatalf("select took %v, want the zone map", info.Path)
	}
	if len(idx) != len(naive) {
		t.Fatalf("zone-map select: %d rows, naive scan %d", len(idx), len(naive))
	}
	for i := range idx {
		if idx[i] != naive[i] {
			t.Fatalf("zone-map select position %d is %d, naive scan %d", i, idx[i], naive[i])
		}
	}
	v, err := in.Exec(`bat("x").select(0.25, 0.3).count;`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Atom.Int() != int64(len(naive)) {
		t.Fatalf("MIL count %v, naive scan %d", v, len(naive))
	}
}

// TestInsertIntoStoredBATRefused: insert on a bat() value, or on a
// view sharing its columns, is an error that points at register, and
// leaves the stored BAT, its epoch and the journal untouched.
func TestInsertIntoStoredBATRefused(t *testing.T) {
	s, j := readOnlyStore(t)
	in := NewInterp(s)
	rows, epoch := 3*monet.MorselSize, s.Epoch("x")
	checkStored(t, s, in, j, rows, epoch, 0) // warm the zone map
	for _, src := range []string{
		`bat("x").insert(oid(0), 9.5);`,
		`VAR b := bat("x"); b.insert(nil, 9.5);`,
		`bat("x").reverse.insert(9.5, oid(0));`,
		`bat("x").mirror.insert(oid(0), oid(0));`,
	} {
		_, err := in.Exec(src)
		if err == nil || !strings.Contains(err.Error(), "read-only") || !strings.Contains(err.Error(), "register") {
			t.Fatalf("%s: err %v, want a read-only error pointing at register", src, err)
		}
		checkStored(t, s, in, j, rows, epoch, 0)
	}
	// A copy is the session's own.
	v, err := in.Exec(`VAR c := bat("x").copy; c.insert(nil, 9.5); RETURN c.count;`)
	if err != nil || v.Atom.Int() != int64(rows+1) {
		t.Fatalf("insert into a copy: %v, %v", v, err)
	}
	checkStored(t, s, in, j, rows, epoch, 0)
}

// TestRegisterHandsStoreACopy: inserts into a BAT after registering it
// reach the session's BAT only, never the store's.
func TestRegisterHandsStoreACopy(t *testing.T) {
	s, j := readOnlyStore(t)
	in := NewInterp(s)
	src, _ := s.Get("x")
	in.SetGlobal("b", BATValue(src.Clone()))
	if _, err := in.Exec(`register("x", b);`); err != nil {
		t.Fatal(err)
	}
	rows, epoch := 3*monet.MorselSize, s.Epoch("x")
	checkStored(t, s, in, j, rows, epoch, 1) // warm the zone map
	v, err := in.Exec(`b.insert(nil, 0.27); b.insert(nil, 0.28); RETURN b.count;`)
	if err != nil || v.Atom.Int() != int64(rows+2) {
		t.Fatalf("insert into the registered BAT: %v, %v", v, err)
	}
	checkStored(t, s, in, j, rows, epoch, 1)
	// Registering again publishes the session's rows, under a new epoch.
	if _, err := in.Exec(`register("x", b);`); err != nil {
		t.Fatal(err)
	}
	checkStored(t, s, in, j, rows+2, epoch+1, 2)
}
