package monet_test

import (
	"fmt"
	"sync"
	"testing"

	"cobra/internal/monet"
	"cobra/internal/wal"
)

// TestConcurrentOperatorsUnderRace drives the morsel-parallel
// operators from many goroutines over one shared, WAL-journaled Store
// while a writer keeps appending. Run with -race it proves the pool,
// the hash join, and the store/journal locking compose without data
// races.
func TestConcurrentOperatorsUnderRace(t *testing.T) {
	store := monet.NewStore()
	mgr, err := wal.Open(t.TempDir(), store, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	prev := monet.SetDefaultPoolWorkers(4)
	defer monet.SetDefaultPoolWorkers(prev)

	n := monet.ParallelThreshold + 100
	big := monet.NewBATCap(monet.Void, monet.IntT, n)
	for i := 0; i < n; i++ {
		big.MustInsert(monet.VoidValue(), monet.NewInt(int64(i%1000)))
	}
	if err := store.Put("big", big); err != nil {
		t.Fatal(err)
	}
	build := monet.NewBAT(monet.IntT, monet.StrT)
	for k := 0; k < 1000; k += 4 {
		build.MustInsert(monet.NewInt(int64(k)), monet.NewStr(fmt.Sprintf("v%d", k)))
	}
	if err := store.Put("build", build); err != nil {
		t.Fatal(err)
	}
	if err := store.Put("journal", monet.NewBAT(monet.IntT, monet.IntT)); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	var wg sync.WaitGroup
	errs := make([]error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			b, err := store.Get("big")
			if err != nil {
				errs[r] = err
				return
			}
			rhs, err := store.Get("build")
			if err != nil {
				errs[r] = err
				return
			}
			for iter := 0; iter < 5; iter++ {
				sel := b.Select(monet.NewInt(100), monet.NewInt(400))
				if sel.Len() == 0 {
					errs[r] = fmt.Errorf("reader %d: empty selection", r)
					return
				}
				if _, err := b.Join(rhs); err != nil {
					errs[r] = fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if _, err := b.Sum(); err != nil {
					errs[r] = fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	// A concurrent writer exercises the journal path while the readers
	// run parallel operators on their own BAT handles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := store.Append("journal", monet.NewInt(int64(i)), monet.NewInt(int64(i*2))); err != nil {
				errs[readers] = err
				return
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	j, err := store.Get("journal")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 200 {
		t.Fatalf("journal BAT has %d rows, want 200", j.Len())
	}
}
