package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/monet"
	"cobra/internal/query"
	"cobra/internal/server"
	"cobra/internal/synth"
)

// The ladder is the traced run's replay: the same generated statements
// go down a ladder of public entry points, one rung at a time, and the
// harness records a span per rung. A layer's self time is its rung
// minus the rung below. All rungs run one statement at a time on one
// goroutine, so they compare like with like; the loaded figures are
// the end-to-end metrics, not these.
//
//	tcp            real server over loopback       (wire + everything)
//	server.Serve   in-process middleware chain     (auth/gate/cache/admit + execute)
//	exec           query.Engine.Run, or direct MIL execution
//	query.Parse    COQL text to AST
//	cobra.leaf     the catalog calls of the statement's leaf conditions
//	monet.select   monet.Store select on the FEATURE leaves' predicates
//
// The kernel's indexes adapt to what they are asked: a range asked a
// second time is answered from a cracked piece in microseconds, and a
// column that has answered a thousand ranges answers the next faster
// than one that has answered ten. So the ladder runs on a server booted
// for it and every in-process rung that touches the store has a copy of
// its own; server and copies see the same statements in the same order,
// warm-up included. Its absolute times are those of a young index, not
// of the loaded window; its differences are like for like.

// ladderStores is the number of store copies the query ladder needs:
// one each for server.Serve, exec, cobra.leaf and monet.select.
const ladderStores = 4

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// featureBounds is the inclusive range a COQL comparison selects, as
// the engine derives it.
func featureBounds(op string, val float64) (lo, hi float64, ok bool) {
	switch op {
	case ">":
		return math.Nextafter(val, math.Inf(1)), math.Inf(1), true
	case ">=":
		return val, math.Inf(1), true
	case "<":
		return math.Inf(-1), math.Nextafter(val, math.Inf(-1)), true
	case "<=":
		return math.Inf(-1), val, true
	case "=":
		return val, val, true
	}
	return 0, 0, false
}

// leaves lists the leaf conditions of a condition tree.
func leaves(c query.Cond, out []query.Cond) []query.Cond {
	switch n := c.(type) {
	case nil:
		return out
	case *query.NotCond:
		return leaves(n.X, out)
	case *query.AndCond:
		return leaves(n.R, leaves(n.L, out))
	case *query.OrCond:
		return leaves(n.R, leaves(n.L, out))
	case *query.TemporalCond:
		return leaves(n.R, leaves(n.L, out))
	}
	return append(out, c)
}

// timed runs fn and records it as a span.
func timed(log *spanLog, name, parent string, req int, attr string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	log.add(name, parent, req, t0, d, attr)
	return d
}

// descend takes one statement down every rung that applies to it and
// reports each rung's time to record. c talks to a server that has
// seen exactly the statements the copies behind refs have seen.
func descend(s stmt, req int, c *server.Client, refs []*reference, log *spanLog, record func(rung string, d time.Duration)) error {
	serveRef, execRef, leafRef, selRef := refs[0], refs[1], refs[2], refs[3]
	var err error
	record("tcp", timed(log, "tcp", "", req, s.class, func() { _, err = c.Do(s.line) }))
	if err != nil {
		return fmt.Errorf("ladder: %s: %w", s.line, err)
	}
	record("server.Serve", timed(log, "server.Serve", "tcp", req, s.class, func() { serveRef.srv.Serve(s.line, io.Discard) }))
	if strings.HasPrefix(s.line, "MIL ") {
		// MIL has no rungs below direct execution: it is kernel work. The
		// other copies must still see the statement, or their indexes
		// would fall behind.
		record("exec", timed(log, "mil.exec", "server.Serve", req, s.class, func() { execRef.srv.Execute(s.line, io.Discard) }))
		leafRef.srv.Execute(s.line, io.Discard)
		selRef.srv.Execute(s.line, io.Discard)
		return nil
	}
	record("exec", timed(log, "query.Engine.Run", "server.Serve", req, s.class, func() { _, err = execRef.eng.Run(s.line) }))
	if err != nil {
		return fmt.Errorf("ladder: Engine.Run %s: %w", s.line, err)
	}
	var q *query.Query
	record("query.Parse", timed(log, "query.Parse", "query.Engine.Run", req, s.class, func() { q, err = query.Parse(s.line) }))
	if err != nil {
		return fmt.Errorf("ladder: Parse %s: %w", s.line, err)
	}
	conds := leaves(q.Where, nil)
	ctx := context.Background()
	record("cobra.leaf", timed(log, "cobra.leaf", "query.Engine.Run", req, s.class, func() {
		for _, l := range conds {
			switch n := l.(type) {
			case *query.EventCond:
				leafRef.cat.Events(q.Video, n.Type)
			case *query.TextCond:
				leafRef.cat.Events(q.Video, query.CaptionEventType)
			case *query.ObjectCond:
				_, _ = leafRef.cat.Object(q.Video, n.Name) // an unknown object is an empty result
			case *query.FeatureCond:
				if lo, hi, ok := featureBounds(n.Op, n.Val); ok {
					_, _, err = leafRef.cat.FeatureRunsCtx(ctx, q.Video, n.Name, lo, hi)
				}
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("ladder: catalog leaf of %s: %w", s.line, err)
	}
	record("monet.select", timed(log, "monet.select", "cobra.leaf", req, s.class, func() {
		for _, l := range conds {
			if n, isFeature := l.(*query.FeatureCond); isFeature {
				if lo, hi, ok := featureBounds(n.Op, n.Val); ok {
					_, _, err = selRef.store.SelectRuns(cobra.FeatureBATName(q.Video, n.Name), monet.NewFloat(lo), monet.NewFloat(hi))
				}
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("ladder: store select of %s: %w", s.line, err)
	}
	return nil
}

// queryLadder replays statements of the workload's generator down the
// query path for about budget, and fills the query-side per-layer
// metrics and the budget table. c is a connection to a freshly booted
// server and refs are ladderStores references over untouched copies of
// the data; warm is taken down every rung untimed first, as a booted
// server is warmed.
func queryLadder(res *runResult, c *server.Client, refs []*reference, warm []stmt, st *stmtStream, budget time.Duration, log *spanLog) error {
	var pings []time.Duration
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		if _, err := c.Do("PING"); err != nil {
			return fmt.Errorf("PING: %w", err)
		}
		d := time.Since(t0)
		log.add("ping", "", i, t0, d, "")
		pings = append(pings, d)
	}
	res.Layers["server.ping_us"] = p50us(pings)

	for _, s := range warm {
		if err := descend(s, 0, c, refs, nil, func(string, time.Duration) {}); err != nil {
			return err
		}
	}
	// rung → class → durations
	rungs := map[string]map[string][]time.Duration{}
	start := time.Now()
	n := 0
	for ; time.Since(start) < budget; n++ {
		s := st.Next()
		// The ladder's own requests are numbered after the window's.
		err := descend(s, 1<<30+n, c, refs, log, func(rung string, d time.Duration) {
			if rungs[rung] == nil {
				rungs[rung] = map[string][]time.Duration{}
			}
			rungs[rung][s.class] = append(rungs[rung][s.class], d)
		})
		if err != nil {
			return err
		}
	}
	res.fact("ladder: %d statements taken one at a time down 6 rungs, on a fresh server and a fresh copy of the data per rung", n)

	// A class's statements cost alike, the classes do not (a cache hit
	// and a miss, a COQL select and a MIL join), so a median is taken per
	// class and the classes are weighted by how often the generator sends
	// them: rung(r, classes) is the expected time of rung r over one
	// statement drawn from those classes. A self time is the same over
	// the per-statement differences of two rungs, which cancels what the
	// statement itself costs and leaves what the upper rung adds.
	weight := map[string]float64{}
	for class, ds := range rungs["tcp"] {
		weight[class] = float64(len(ds))
	}
	count := func(classes []string) (n int) {
		for _, c := range classes {
			n += int(weight[c])
		}
		return n
	}
	weighted := func(classes []string, series func(class string) []time.Duration) float64 {
		sum, w := 0.0, 0.0
		for _, c := range classes {
			if ds := series(c); len(ds) > 0 {
				sum += weight[c] * p50us(ds)
				w += weight[c]
			}
		}
		return per(sum, w)
	}
	rung := func(r string, classes []string) float64 {
		return weighted(classes, func(c string) []time.Duration { return rungs[r][c] })
	}
	// self is the upper rung minus the lower ones, statement by statement.
	self := func(classes []string, upper string, lower ...string) float64 {
		return math.Max(0, weighted(classes, func(c string) []time.Duration {
			d := append([]time.Duration(nil), rungs[upper][c]...)
			for _, l := range lower {
				for i := range d {
					d[i] -= rungs[l][c][i]
				}
			}
			return d
		}))
	}
	all := sortedKeys(rungs["tcp"])
	var coql, executing []string // COQL statements that execute; those plus MIL
	for _, c := range all {
		if c != "hit" {
			executing = append(executing, c)
			if c != "mil" {
				coql = append(coql, c)
			}
		}
	}
	mil := []string{"mil"}

	wire := self(all, "tcp", "server.Serve")
	middleware := self(executing, "server.Serve", "exec")
	parse := rung("query.Parse", coql)
	leaf := rung("cobra.leaf", coql)
	sel := rung("monet.select", coql)
	run := rung("exec", coql)
	eval := self(coql, "exec", "query.Parse", "cobra.leaf")
	leafSelf := self(coql, "cobra.leaf", "monet.select")
	milExec := rung("exec", mil)
	res.Layers["server.wire_us"] = wire
	res.Layers["server.middleware_us"] = middleware
	res.Layers["query.parse_us"] = parse
	res.Layers["query.eval_us"] = eval
	res.Layers["mil.exec_us"] = milExec
	res.Layers["monet.select_ms"] = sel / 1000

	// The budget of one executing request. COQL and MIL rows are scaled
	// by the share of executing statements that are COQL or MIL, so the
	// self times add up to the TCP row (up to the noise of medians).
	tcpExec := rung("tcp", executing)
	nExec := count(executing)
	coqlShare := per(float64(count(coql)), float64(nExec))
	milShare := per(float64(count(mil)), float64(nExec))
	row := func(layer, name string, p50, self, scale float64, n int) budgetRow {
		return budgetRow{layer, name, p50, self * scale, 100 * per(self*scale, tcpExec), n}
	}
	res.Budget = []budgetRow{
		{"(all)", "tcp, statements that execute", tcpExec, tcpExec, 100, nExec},
		row("server", "wire: tcp - server.Serve", rung("tcp", all), wire, 1, count(all)),
		row("server", "middleware: server.Serve - exec", rung("server.Serve", executing), middleware, 1, nExec),
		row("query", "query.Parse", parse, parse, coqlShare, count(coql)),
		row("query", "eval: Engine.Run - parse - leaves", run, eval, coqlShare, count(coql)),
		row("cobra", "catalog leaf calls - store select", leaf, leafSelf, coqlShare, count(coql)),
		row("monet", "store select of FEATURE leaves", sel, sel, coqlShare, count(coql)),
		row("mil", "direct MIL execution (interpreter + kernel)", milExec, milExec, milShare, count(mil)),
		{"qcache", "server.Serve on a cache hit (not in the sum)", rung("server.Serve", []string{"hit"}), 0, 0, int(weight["hit"])},
	}
	return nil
}

// extractRate times f1.Extract on a short seeded race: the feature
// extraction cost behind setup_s of adhoc_paper and live_*.
func extractRate(res *runResult, seed int64) error {
	const dur = 10
	race := synth.GenerateRace(synth.GermanGP, dur, seed)
	t0 := time.Now()
	if _, err := f1.Extract(race, f1.Options{Seed: seed}); err != nil {
		return fmt.Errorf("f1.Extract: %w", err)
	}
	res.Layers["f1.extract_s_per_race_s"] = time.Since(t0).Seconds() / dur
	return nil
}
