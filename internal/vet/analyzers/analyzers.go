// Package analyzers holds the project-specific checks run by
// cobravet: invariants of this codebase that gofmt, go vet and the
// compiler cannot express, each encoding a rule documented in the
// package it protects.
package analyzers

import "cobra/internal/vet"

// All is the cobravet suite in stable order, which is also the order
// of the diagnostic codes (CV001…). Codes never move once assigned and
// a retired code is never reused: CV013 (arenaescape) went with the
// morsel arenas it guarded, so the next analyzer appends as CV014.
var All = []*vet.Analyzer{
	SpanEnd,    // CV001
	CtxSpan,    // CV002
	GoFatal,    // CV003
	StoreLock,  // CV004
	ErrWrap,    // CV005
	PoolLeak,   // CV006
	EpochGuard, // CV007
	LockOrder,  // CV008
	GoLeak,     // CV009
	AllocHot,   // CV010
	ChanSend,   // CV011
	AllowLint,  // CV012
}
