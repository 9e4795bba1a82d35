// Package storelock is the storelock analyzer's fixture.
package storelock

import (
	"context"

	"cobra/internal/monet"
)

// badJournal calls back into the store from journal hooks.
type badJournal struct {
	store *monet.Store
}

// JournalPut implements monet.Journal.
func (j *badJournal) JournalPut(name string, b *monet.BAT) error {
	_, _ = j.store.Get(name) // want "deadlocks"
	return nil
}

// JournalAppend implements monet.Journal.
func (j *badJournal) JournalAppend(name string, h, t monet.Value) error {
	return j.store.Drop(name) // want "deadlocks"
}

// JournalDrop implements monet.Journal.
func (j *badJournal) JournalDrop(name string) error {
	return nil
}

// JournalBatch implements monet.Journal.
func (j *badJournal) JournalBatch(w *monet.WriteBatch) error {
	return j.store.Commit(context.Background(), w) // want "deadlocks"
}

// goodJournal touches only its own state.
type goodJournal struct {
	names []string
}

// JournalPut implements monet.Journal.
func (j *goodJournal) JournalPut(name string, b *monet.BAT) error {
	j.names = append(j.names, name)
	return nil
}

// JournalAppend implements monet.Journal.
func (j *goodJournal) JournalAppend(name string, h, t monet.Value) error {
	return nil
}

// JournalDrop implements monet.Journal.
func (j *goodJournal) JournalDrop(name string) error {
	return nil
}

// JournalBatch implements monet.Journal.
func (j *goodJournal) JournalBatch(w *monet.WriteBatch) error {
	j.names = append(j.names, w.Entries()[0].Name)
	return nil
}

// inspect may use the store freely outside the Journal hooks.
func (j *badJournal) inspect(name string) bool {
	_, err := j.store.Get(name)
	return err == nil
}
