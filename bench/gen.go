package main

import (
	"fmt"
	"math/rand"
)

// Every input of a run derives from -seed: the statement streams here,
// the standing queries, the synthetic video of kernel_scan and the
// race the live feed airs. The server only ever sees generated
// statements and flags.

// stmt is one generated request line and the class it is timed under.
type stmt struct {
	line string
	// class names the path the statement is meant to take: "hit" (a
	// pool statement the result cache answers), "miss" (fresh
	// parameters, full COQL evaluation), "feature", "mil", "event".
	class string
}

// generator describes a statement mix as a deck of slots: a block of
// len(deck) consecutive statements holds every slot exactly once, in
// an order shuffled per block. The mix is therefore exact over any
// window, not merely expected: with a plain draw per statement the
// number of heavy statements in a 10 s window would vary by its square
// root, and the load with it.
type generator struct {
	slots int
	make  func(slot int, r *rand.Rand) stmt
}

// stmtStream is a deterministic statement source. Streams of one run
// differ by index: 0 and 1 feed the two load connections, 2 the ladder
// replay, 3 the warm-up, so a fresh statement never repeats across
// them.
type stmtStream struct {
	rng  *rand.Rand
	gen  generator
	deck []int
}

func newStream(seed int64, index int, gen generator) *stmtStream {
	return &stmtStream{rng: rand.New(rand.NewSource(seed*1000003 + int64(index)*7919 + 1)), gen: gen}
}

func (s *stmtStream) Next() stmt {
	if len(s.deck) == 0 {
		s.deck = s.rng.Perm(s.gen.slots)
	}
	slot := s.deck[0]
	s.deck = s.deck[1:]
	return s.gen.make(slot, s.rng)
}

// fresh renders a parameter drawn uniformly from [lo, hi) with twelve
// decimals: two draws colliding — and so turning a miss into a cache
// hit — is a one-in-billions event at the request counts of a run.
func fresh(r *rand.Rand, lo, hi float64) string {
	return fmt.Sprintf("%.12f", lo+(hi-lo)*r.Float64())
}

func pick(r *rand.Rand, from []string) string { return from[r.Intn(len(from))] }

// ---- adhoc_paper ----

var paperVideos = []string{"german-gp", "belgian-gp", "usa-gp"}

// paperPool is the fixed pool of 18 statements of the paper's
// interactive session: six per Grand Prix. They repeat, so after the
// warm-up every one of them is a result-cache hit.
var paperPool = func() []string {
	var pool []string
	for _, v := range paperVideos {
		pool = append(pool,
			"SELECT SEGMENTS FROM "+v+" WHERE EVENT('pitstop')",
			"SELECT SEGMENTS FROM "+v+" WHERE EVENT('pitstop', driver='SCHUMACHER')",
			"SELECT SEGMENTS FROM "+v+" WHERE EVENT('flyout')",
			"SELECT SEGMENTS FROM "+v+" WHERE TEXT CONTAINS 'PIT'",
			"SELECT SEGMENTS FROM "+v+" WHERE EVENT('highlight')",
			"SELECT SEGMENTS FROM "+v+" WHERE EVENT('highlight') ORDER BY CONFIDENCE DESC LIMIT 5",
		)
	}
	return pool
}()

var (
	paperEvents   = []string{"pitstop", "flyout", "passing", "start", "excited", "caption"}
	paperFeatures = []string{"steavg", "pitchavg", "mfccavg", "motion", "audioex", "keywords"}
)

// adhocPaper takes half its statements from the pool and half with
// never-repeating parameters, which miss the cache and run
// parse → plan → eval: three pool slots and one slot per fresh shape.
var adhocPaper = generator{slots: 6, make: func(slot int, r *rand.Rand) stmt {
	if slot < 3 {
		return stmt{pick(r, paperPool), "hit"}
	}
	v := pick(r, paperVideos)
	switch slot {
	case 3:
		return stmt{fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE EVENT('highlight') WITHIN %s OF EVENT('%s')",
			v, fresh(r, 1, 30), pick(r, paperEvents)), "miss"}
	case 4:
		return stmt{fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE FEATURE('%s') > %s",
			v, pick(r, paperFeatures), fresh(r, 0.2, 0.7)), "miss"}
	}
	return stmt{fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE FEATURE('%s') > %s AND NOT EVENT('%s')",
		v, pick(r, paperFeatures), fresh(r, 0.2, 0.7), pick(r, paperEvents)), "miss"}
}}

// ---- kernel_scan ----

const (
	scanVideo    = "synth"
	scanSamples  = 1 << 20
	scanRate     = 10.0 // samples per second, the catalog's clip rate
	scanEvents   = 2000
	scanFeatures = 4
)

func scanFeature(i int) string { return fmt.Sprintf("s%d", i) }
func scanEvent(i int) string   { return fmt.Sprintf("e%d", i) }

// scanEventTypes is how many event types the 2000 synthetic events are
// spread over.
const scanEventTypes = 8

// kernelScan is 60 % COQL FEATURE range queries, 30 % MIL statements on
// the same BATs and 10 % event-only COQL. Every threshold is fresh, so
// the result cache can never hit and every request scans ~1M rows.
var kernelScan = generator{slots: 10, make: func(d int, r *rand.Rand) stmt {
	f := scanFeature(r.Intn(scanFeatures))
	bat := "cobra/feature/" + scanVideo + "/" + f
	switch {
	case d < 6:
		// A threshold near the middle of the value range: about half the
		// samples qualify, so the select does as much work as a MIL scan.
		return stmt{fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE FEATURE('%s') %s %s",
			scanVideo, f, pick(r, []string{">", "<"}), fresh(r, 0.4, 0.6)), "feature"}
	case d < 7:
		a := r.Float64() * 0.9
		return stmt{fmt.Sprintf(`MIL bat("%s").select(%.12f, %.12f).count;`, bat, a, a+0.05), "mil"}
	case d < 8:
		a := r.Float64() * 0.9
		return stmt{fmt.Sprintf(`MIL bat("%s").select(%.12f, %.12f).sum;`, bat, a, a+0.05), "mil"}
	case d < 9:
		// Range-select one stream, then join the qualifying positions
		// against a second stream of the same video.
		g := scanFeature(r.Intn(scanFeatures))
		a := r.Float64() * 0.95
		return stmt{fmt.Sprintf(`MIL bat("%s").select(%.12f, %.12f).mirror.join(bat("cobra/feature/%s/%s")).avg;`,
			bat, a, a+0.01, scanVideo, g), "mil"}
	}
	return stmt{fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE EVENT('%s') LAST %s S",
		scanVideo, scanEvent(r.Intn(scanEventTypes)), fresh(r, 1000, 100000)), "event"}
}}

// ---- live_fanout, live_durable ----

const liveVideo = "live-gp"

var (
	liveEvents   = []string{"passing", "flyout", "pitstop", "replay", "start", "caption"}
	liveFeatures = []string{"audioex", "motion", "steavg", "pitchavg", "mfccavg", "keywords", "dust", "colordiff"}
	liveWords    = []string{"PIT", "LAP", "SCHUMACHER", "BARRICHELLO", "HAKKINEN", "MONTOYA", "WINNER", "COULTHARD"}
)

// liveReader is the one-shot COQL the open-loop reader sends beside
// the feed: the same shapes as the standing queries, with fresh
// parameters, against a video whose BATs change every tick.
var liveReader = generator{slots: 4, make: func(slot int, r *rand.Rand) stmt {
	switch slot {
	case 0:
		return stmt{fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE EVENT('%s') LAST %s S",
			liveVideo, pick(r, liveEvents), fresh(r, 10, 60)), "event"}
	case 1:
		return stmt{fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE FEATURE('%s') > %s",
			liveVideo, pick(r, liveFeatures), fresh(r, 0.2, 0.7)), "feature"}
	case 2:
		return stmt{fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE EVENT('%s') WITHIN %s OF EVENT('%s')",
			liveVideo, pick(r, liveEvents), fresh(r, 2, 20), pick(r, liveEvents)), "event"}
	}
	return stmt{fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE TEXT CONTAINS '%s'", liveVideo, pick(r, liveWords)), "event"}
}}

// standingTemplates is the number of standing-query shapes.
const standingTemplates = 5

// standingQueries returns n standing queries: the five templates, each
// with n/5/copies distinct parameterisations, every parameterisation
// registered copies times. With n=1000 and copies=10 that is
// 5 × 20 × 10: a thousand monitors in about a hundred canonical
// classes, the many-monitors-one-stream case.
func standingQueries(seed int64, n, copies int) []string {
	r := rand.New(rand.NewSource(seed*1000003 + 104729))
	params := n / standingTemplates / copies
	var out []string
	for t := 0; t < standingTemplates; t++ {
		for p := 0; p < params; p++ {
			var q string
			switch t {
			case 0:
				q = fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE EVENT('%s') LAST %d S",
					liveVideo, liveEvents[p%len(liveEvents)], 10+5*p)
			case 1:
				q = fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE FEATURE('%s') > %.3f",
					liveVideo, liveFeatures[p%len(liveFeatures)], 0.25+0.5*r.Float64())
			case 2:
				q = fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE FEATURE('%s') > %.3f LAST 30 S",
					liveVideo, liveFeatures[p%len(liveFeatures)], 0.2+0.4*r.Float64())
			case 3:
				q = fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE EVENT('%s') WITHIN %d OF EVENT('%s')",
					liveVideo, liveEvents[p%len(liveEvents)], 3+p, liveEvents[(p+1+p/len(liveEvents))%len(liveEvents)])
			case 4:
				q = fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE TEXT CONTAINS '%s' LAST %d S",
					liveVideo, liveWords[p%len(liveWords)], 20+10*(p/len(liveWords)))
			}
			for c := 0; c < copies; c++ {
				out = append(out, q)
			}
		}
	}
	return out
}
