// Package server exposes the Cobra VDBMS over a line-oriented TCP
// protocol: COQL queries at the conceptual level, MIL statements at
// the physical level, and remote HMM evaluation in the style of the
// paper's distributed HMM servers (Fig. 3).
//
// Protocol: one request per line.
//
//	COQL <statement>      -> "OK <n>" then n result lines, then "END"
//	MIL <statement(s)>    -> "OK 1", the value, "END"
//	CHECK <mil>           -> static verification: diagnostics, or "program OK"
//	EXPLAIN <coql>        -> the condition tree evaluation walks, with access paths
//	EXPLAIN ANALYZE <coql> -> the tree, then the executed trace
//	INDEXINFO <bat>       -> adaptive index state of a stored BAT
//	HMM EVAL <model> <c,s,v>  -> "OK 1", log-likelihood, "END"
//	HMM CLASSIFY <c,s,v>      -> "OK 1", best model name, "END"
//	LIST VIDEOS           -> videos known to the catalog
//	EXPORT <video>        -> MPEG-7-style metadata XML
//	STATS                 -> telemetry counters, gauges and latency quantiles
//	TRACE <statement>     -> run the COQL statement, return its span tree
//	TRACEDUMP [id [CHROME]] -> recent completed traces; one trace's resources
//	                         and span tree; or its Chrome trace-event JSON
//	SLOWLOG               -> slow queries with trace IDs and full span trees
//	CHECKPOINT            -> force a durability checkpoint (WAL truncation)
//	SUBSCRIBE <coql>      -> register a standing query; matches are pushed
//	                         asynchronously as EVENT frames (see below)
//	UNSUBSCRIBE <id>      -> cancel one of this connection's subscriptions
//	SUBSCRIPTIONS         -> list active subscriptions
//	AUTH <tenant> [token] -> name the connection (rate limits);
//	                         unlocks heavy verbs when a token is required
//	CACHESTATS            -> result-cache counters
//	PING                  -> "OK 0", "END"
//
// Every request line flows through the serving middleware chain
// (auth -> cache -> admit -> execute; see middleware.go).
// One-shot COQL responses may be served from the semantic result
// cache — byte-identical to execution and invalidated by dependency
// epoch, never stale. An overloaded server answers heavy requests
// with a one-line "BUSY <reason>" frame instead of queuing them.
//
// A subscribed connection additionally receives asynchronous push
// frames between responses, never inside one:
//
//	EVENT <subID> <seq> <watermark> <n>
//	<n result lines, as a COQL response>
//	END
//
// Each frame carries the standing query's full current result set at
// the watermark — byte-identical to a one-shot COQL response at that
// point — so the latest frame always supersedes earlier ones.
//
// Errors answer "ERR <message>". The full wire protocol, with framing
// and examples, is specified in docs/PROTOCOL.md.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cobra/internal/admit"
	"cobra/internal/cobra"
	"cobra/internal/ext"
	"cobra/internal/hmm"
	"cobra/internal/mil"
	"cobra/internal/milcheck"
	"cobra/internal/obs"
	"cobra/internal/qcache"
	"cobra/internal/query"
	"cobra/internal/stream"
)

// Protocol-level metrics.
var (
	cRequests    = obs.C("server.requests")
	cConnections = obs.C("server.connections")
	cCheckpoints = obs.C("server.checkpoint_requests")
)

// Checkpointer forces a durability checkpoint: snapshot the store,
// flip the snapshot pointer, truncate the write-ahead log. The wal
// package's Manager implements it; a server without one rejects the
// CHECKPOINT command.
type Checkpointer interface {
	// Checkpoint blocks until the checkpoint is durable.
	Checkpoint() error
}

// ErrServerClosed is returned by Close and Listen after the server has
// already been shut down.
var ErrServerClosed = errors.New("server: already closed")

// Server serves the database over TCP.
type Server struct {
	eng    *query.Engine
	cat    *cobra.Catalog
	interp *mil.Interp
	pool   *hmm.EnginePool

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	cp     Checkpointer
	stream *stream.Manager

	// Serving pipeline state (see middleware.go): the semantic result
	// cache, the admission controller and the optional shared auth
	// token.
	cache     *qcache.Cache
	adm       *admit.Controller
	authToken string

	inprocOnce sync.Once
	inproc     Handler
}

// New builds a server over the preprocessor (COQL), its catalog's
// store (MIL) and an optional HMM pool (nil disables HMM commands).
// When a pool is attached, the MIL session gains the Fig. 4 extension
// operations (hmmOneCall, hmmClassify).
func New(pre *cobra.Preprocessor, pool *hmm.EnginePool) *Server {
	interp := mil.NewInterp(pre.Catalog().Store())
	if pool != nil {
		ext.RegisterHMM(interp, pool)
	}
	return &Server{
		eng:    query.NewEngine(pre),
		cat:    pre.Catalog(),
		interp: interp,
		pool:   pool,
	}
}

// SetCache attaches the semantic result cache. Call before Listen;
// without one COQL queries always execute.
func (s *Server) SetCache(c *qcache.Cache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = c
}

// Cache returns the attached result cache (nil if none).
func (s *Server) Cache() *qcache.Cache {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache
}

// SetAdmission attaches the admission controller. Call before Listen;
// without one every request is admitted.
func (s *Server) SetAdmission(a *admit.Controller) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adm = a
}

// Admission returns the attached admission controller (nil if none).
func (s *Server) Admission() *admit.Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adm
}

// SetAuthToken requires connections to authenticate (AUTH <tenant>
// <token>) before heavy verbs are served. Empty disables the check.
func (s *Server) SetAuthToken(token string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.authToken = token
}

// SetCheckpointer attaches the durability subsystem serving the
// CHECKPOINT command. Call before Listen; a nil (or absent)
// checkpointer makes CHECKPOINT answer an error.
func (s *Server) SetCheckpointer(cp Checkpointer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cp = cp
}

// SetStream attaches the subscription manager serving SUBSCRIBE /
// UNSUBSCRIBE / SUBSCRIPTIONS. Call before Listen; without one the
// streaming verbs answer an error.
func (s *Server) SetStream(m *stream.Manager) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stream = m
}

// Stream returns the attached subscription manager (nil if none).
func (s *Server) Stream() *stream.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stream
}

// Listen binds the address and starts serving until the listener is
// closed. It returns the bound address immediately via the channel
// pattern: callers use ListenAddr.
func (s *Server) Listen(addr string) (net.Addr, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	s.mu.Unlock()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	go s.acceptLoop(l)
	return l.Addr(), nil
}

// Close shuts the server down: it stops the listener, unblocks every
// connection's pending read so in-flight handlers finish their current
// request and drain, and waits for all of them to exit before
// returning. A second Close returns ErrServerClosed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
		s.listener = nil
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	// Expire pending reads instead of closing the connections outright:
	// a handler mid-request finishes and flushes its response, then its
	// next read fails and it exits, closing the connection itself.
	for _, c := range conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
	return err
}

// track registers a live connection, reporting false once the server
// is closed.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = map[net.Conn]struct{}{}
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		cConnections.Inc()
		go func() {
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// connState is the per-connection write side: command responses and
// asynchronous push frames share the writer, serialized by mu so a
// frame never interleaves inside a response.
type connState struct {
	mu sync.Mutex
	w  *bufio.Writer
	// pushers counts this connection's frame-push goroutines.
	pushers sync.WaitGroup
	// tenant and authed are the connection's AUTH identity; guarded by
	// mu like the writer (requests on one connection are serial).
	tenant string
	authed bool
}

func (s *Server) handle(conn net.Conn) {
	st := &connState{w: bufio.NewWriter(conn)}
	defer conn.Close()
	defer func() {
		// Cancel the connection's standing queries, then let the pushers
		// drain and exit before the connection closes under them.
		if m := s.Stream(); m != nil {
			m.UnsubscribeOwner(conn)
		}
		st.pushers.Wait()
	}()
	// Every request line flows through the serving pipeline; the
	// terminal handler knows the connection-scoped streaming verbs.
	chain := s.buildChain(func(req *Request, w io.Writer) {
		if !s.execStream(conn, st, req.Line) {
			s.execute(req.Ctx, req.Line, req.Stmt, w)
		}
	})
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "QUIT") {
			st.mu.Lock()
			writeLines(st.w, nil)
			st.w.Flush()
			st.mu.Unlock()
			return
		}
		st.mu.Lock()
		if cmd, rest, _ := strings.Cut(line, " "); strings.EqualFold(cmd, "AUTH") {
			s.execAuth(st, rest)
		} else {
			chain(newRequest(context.Background(), line, st.tenant, st.authed), st.w)
		}
		st.w.Flush()
		st.mu.Unlock()
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// Say why the connection closes instead of dropping it silently.
		st.mu.Lock()
		fmt.Fprintln(st.w, "ERR request line exceeds 1 MiB")
		st.w.Flush()
		st.mu.Unlock()
	}
}

// execAuth serves the connection-scoped AUTH verb: "AUTH <tenant>
// [token]" names the connection for rate limits and — when the server
// requires a token — unlocks the heavy verbs. Called with st.mu held.
func (s *Server) execAuth(st *connState, rest string) {
	cRequests.Inc()
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 {
		fmt.Fprintln(st.w, "ERR usage: AUTH <tenant> [token]")
		return
	}
	s.mu.Lock()
	want := s.authToken
	s.mu.Unlock()
	if want != "" && (len(fields) < 2 || fields[1] != want) {
		fmt.Fprintln(st.w, "ERR bad credentials")
		return
	}
	st.tenant = fields[0]
	st.authed = true
	writeLines(st.w, []string{"authenticated " + st.tenant})
}

// execStream handles the connection-scoped streaming verbs; it
// reports false when the line is not one of them (the generic
// dispatcher takes over). Called with st.mu held.
func (s *Server) execStream(conn net.Conn, st *connState, line string) bool {
	cmd, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "SUBSCRIBE":
		cRequests.Inc()
		m := s.Stream()
		if m == nil {
			fmt.Fprintln(st.w, "ERR streaming disabled (no subscription manager attached)")
			return true
		}
		stmt := strings.TrimSpace(rest)
		if stmt == "" {
			fmt.Fprintln(st.w, "ERR usage: SUBSCRIBE <coql statement>")
			return true
		}
		sub, err := m.Subscribe(stmt, conn)
		if err != nil {
			fmt.Fprintf(st.w, "ERR %v\n", err)
			return true
		}
		writeLines(st.w, []string{sub.ID})
		// The pusher starts while the response is still being written
		// (st.mu is held), so the SUBSCRIBE reply always precedes the
		// subscription's first frame.
		st.pushers.Add(1)
		go func() {
			defer st.pushers.Done()
			var frame []byte
			for {
				n, ok := sub.Next()
				if !ok {
					return
				}
				// n.Lines is shared with every subscriber of the same
				// query, on this and other connections: read, never written.
				frame = fmt.Appendf(frame[:0], "EVENT %s %d %g %d\n", n.SubID, n.Seq, n.Watermark, len(n.Lines))
				frame = appendBody(frame, n.Lines)
				st.mu.Lock()
				st.w.Write(frame)
				st.w.Flush()
				st.mu.Unlock()
			}
		}()
		return true
	case "UNSUBSCRIBE":
		cRequests.Inc()
		m := s.Stream()
		if m == nil {
			fmt.Fprintln(st.w, "ERR streaming disabled (no subscription manager attached)")
			return true
		}
		id := strings.TrimSpace(rest)
		sub, ok := m.Get(id)
		if !ok || sub.Owner != conn {
			fmt.Fprintf(st.w, "ERR no subscription %q on this connection\n", id)
			return true
		}
		m.Unsubscribe(id)
		writeLines(st.w, []string{id + " unsubscribed"})
		return true
	}
	return false
}

// Execute runs one protocol line, writing the response to w. Exposed
// for in-process use and testing.
func (s *Server) Execute(line string, w io.Writer) {
	s.ExecuteCtx(context.Background(), line, w)
}

// ExecuteCtx runs one protocol line under a context. Requests that do
// work (COQL, MIL) become traces: the engine or server assigns a trace
// ID, threads the trace handle down the stack, and pushes the
// completed span tree into obs.DefaultTraces for TRACEDUMP.
func (s *Server) ExecuteCtx(ctx context.Context, line string, w io.Writer) {
	s.execute(ctx, line, nil, w)
}

// execute is ExecuteCtx for a line whose COQL statement the serving
// chain may already have parsed (stmt, nil if not).
func (s *Server) execute(ctx context.Context, line string, stmt *query.Statement, w io.Writer) {
	cRequests.Inc()
	cmd, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "PING":
		writeLines(w, nil)
	case "COQL", "SELECT", "RETRIEVE":
		if stmt == nil {
			src := rest
			if !strings.EqualFold(cmd, "COQL") {
				src = line // SELECT/RETRIEVE given directly
			}
			stmt = query.ParseStatement(src)
		}
		res, _, err := s.eng.RunStatement(ctx, stmt)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		buf := fmt.Appendf(make([]byte, 0, 64+48*len(res)), "OK %d\n", len(res))
		for _, r := range res {
			buf = append(query.AppendResult(buf, r), '\n')
		}
		w.Write(append(buf, "END\n"...))
	case "MIL":
		v, err := s.execMILTraced(ctx, rest)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		writeLines(w, []string{v.String()})
	case "CHECK":
		stmt := strings.TrimSpace(rest)
		if stmt == "" {
			fmt.Fprintln(w, "ERR usage: CHECK <mil statement(s)>")
			return
		}
		diags, err := milcheck.CheckSource(stmt, s.checkOptions())
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		if len(diags) == 0 {
			writeLines(w, []string{"program OK"})
			return
		}
		lines := make([]string, len(diags))
		for i, d := range diags {
			lines[i] = d.String()
		}
		writeLines(w, lines)
	case "EXPLAIN":
		stmt := strings.TrimSpace(rest)
		if stmt == "" {
			fmt.Fprintln(w, "ERR usage: EXPLAIN [ANALYZE] <coql statement>")
			return
		}
		explain := s.eng.Explain
		if fields := strings.Fields(stmt); strings.EqualFold(fields[0], "ANALYZE") {
			stmt = strings.TrimSpace(stmt[len(fields[0]):])
			if stmt == "" {
				fmt.Fprintln(w, "ERR usage: EXPLAIN ANALYZE <coql statement>")
				return
			}
			explain = s.eng.ExplainAnalyze
		}
		lines, err := explain(stmt)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		writeLines(w, lines)
	case "INDEXINFO":
		name := strings.TrimSpace(rest)
		if name == "" {
			fmt.Fprintln(w, "ERR usage: INDEXINFO <bat name>")
			return
		}
		b, err := s.cat.Store().IndexInfo(name)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		lines := make([]string, b.Len())
		for i := 0; i < b.Len(); i++ {
			lines[i] = b.Head(i).Str() + " " + b.Tail(i).Str()
		}
		writeLines(w, lines)
	case "HMM":
		s.execHMM(rest, w)
	case "EXPORT":
		video := strings.TrimSpace(rest)
		out, err := cobra.ExportMPEG7(s.cat, video)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		writeLines(w, strings.Split(strings.TrimRight(string(out), "\n"), "\n"))
	case "STATS":
		var sb strings.Builder
		if err := obs.Default.WriteText(&sb); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		writeLines(w, strings.Split(strings.TrimRight(sb.String(), "\n"), "\n"))
	case "TRACE":
		stmt := strings.TrimSpace(rest)
		if stmt == "" {
			fmt.Fprintln(w, "ERR usage: TRACE <coql statement>")
			return
		}
		res, span, err := s.eng.RunTraced(stmt)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		lines := []string{fmt.Sprintf("# %d segments", len(res))}
		lines = append(lines, strings.Split(strings.TrimRight(span.Render(), "\n"), "\n")...)
		writeLines(w, lines)
	case "CHECKPOINT":
		cCheckpoints.Inc()
		s.mu.Lock()
		cp := s.cp
		s.mu.Unlock()
		if cp == nil {
			fmt.Fprintln(w, "ERR durability disabled (start the server with -data-dir)")
			return
		}
		start := time.Now()
		if err := cp.Checkpoint(); err != nil {
			fmt.Fprintf(w, "ERR checkpoint: %v\n", err)
			return
		}
		writeLines(w, []string{fmt.Sprintf("checkpoint complete in %v", time.Since(start).Round(time.Millisecond))})
	case "CACHESTATS":
		s.execCacheStats(w)
	case "AUTH":
		// Reached only without a connection (in-process Execute); the
		// connection handler owns AUTH because it mutates conn state.
		fmt.Fprintln(w, "ERR AUTH requires a client connection")
	case "TRACEDUMP":
		s.execTraceDump(rest, w)
	case "SLOWLOG":
		entries := obs.DefaultSlowLog.Entries()
		lines := make([]string, 0, len(entries)+1)
		lines = append(lines, fmt.Sprintf("# threshold %v", obs.DefaultSlowLog.Threshold()))
		for _, e := range entries {
			head := fmt.Sprintf("%s %v", e.When.Format(time.RFC3339), e.Duration)
			if e.TraceID != "" {
				head += " trace=" + e.TraceID
			}
			lines = append(lines, head+" "+e.Query)
			if e.Root != nil {
				for _, l := range strings.Split(strings.TrimRight(e.Root.Render(), "\n"), "\n") {
					lines = append(lines, "  "+l)
				}
			}
		}
		writeLines(w, lines)
	case "SUBSCRIPTIONS":
		m := s.Stream()
		if m == nil {
			fmt.Fprintln(w, "ERR streaming disabled (no subscription manager attached)")
			return
		}
		subs := m.List()
		sort.Slice(subs, func(i, j int) bool { return subNum(subs[i].ID) < subNum(subs[j].ID) })
		lines := make([]string, len(subs))
		for i, sub := range subs {
			lines[i] = fmt.Sprintf("%s dropped=%d %s", sub.ID, sub.Dropped(), sub.Query)
		}
		writeLines(w, lines)
	case "SUBSCRIBE", "UNSUBSCRIBE":
		// Reached only without a connection (in-process Execute); the
		// connection handler intercepts these verbs first.
		fmt.Fprintf(w, "ERR %s requires a client connection\n", strings.ToUpper(cmd))
	case "LIST":
		if strings.EqualFold(strings.TrimSpace(rest), "videos") {
			writeLines(w, s.cat.Videos())
			return
		}
		fmt.Fprintln(w, "ERR unknown LIST target")
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", cmd)
	}
}

// execCacheStats serves CACHESTATS: the result cache's counters, one
// "name value" pair per line in the same dotted namespace the /metrics
// endpoint exports.
func (s *Server) execCacheStats(w io.Writer) {
	cache := s.Cache()
	if cache == nil {
		fmt.Fprintln(w, "ERR result cache disabled (start the server with -qcache-bytes)")
		return
	}
	st := cache.Stats()
	lines := []string{
		fmt.Sprintf("qcache.hits %d", st.Hits),
		fmt.Sprintf("qcache.misses %d", st.Misses),
		fmt.Sprintf("qcache.singleflight_waits %d", st.SingleflightWaits),
		fmt.Sprintf("qcache.evictions %d", st.Evictions),
		fmt.Sprintf("qcache.invalidations %d", st.Invalidations),
		fmt.Sprintf("qcache.entries %d", st.Entries),
		fmt.Sprintf("qcache.bytes %d", st.Bytes),
		fmt.Sprintf("qcache.max_bytes %d", st.MaxBytes),
	}
	writeLines(w, lines)
}

// execMILTraced runs one MIL request as its own trace ("mil.request"):
// the span handle rides ctx into the interpreter and the kernel, and
// the completed trace lands in obs.DefaultTraces like a COQL query.
func (s *Server) execMILTraced(ctx context.Context, src string) (mil.Value, error) {
	root := obs.StartTrace("mil.request")
	root.SetAttr("level", "physical")
	root.SetAttr("query", src)
	v, err := s.interp.ExecCtx(obs.ContextWithSpan(ctx, root), src)
	errStr := ""
	if err != nil {
		errStr = err.Error()
		root.SetAttr("error", errStr)
	}
	stat := root.Resources().Stat()
	root.SetAttr("resources", stat.String())
	d := root.Finish()
	obs.DefaultTraces.Add(obs.Trace{
		ID:       root.TraceID(),
		Query:    src,
		Start:    root.StartTime(),
		Duration: d,
		Err:      errStr,
		Res:      stat,
		Root:     root,
	})
	return v, err
}

// execTraceDump serves the TRACEDUMP verb. Bare TRACEDUMP lists the
// trace ring newest first; TRACEDUMP <id> prints one trace's resource
// attribution and span tree; TRACEDUMP <id> CHROME prints the trace as
// one line of Chrome trace-event JSON for about:tracing / Perfetto.
func (s *Server) execTraceDump(rest string, w io.Writer) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		traces := obs.DefaultTraces.Recent()
		lines := make([]string, 0, len(traces)+1)
		lines = append(lines, fmt.Sprintf("# %d traces", len(traces)))
		for _, t := range traces {
			l := fmt.Sprintf("%s %s %v %s", t.ID, t.Start.Format(time.RFC3339), t.Duration, t.Query)
			if t.Err != "" {
				l += " [error: " + t.Err + "]"
			}
			lines = append(lines, l)
		}
		writeLines(w, lines)
		return
	}
	t, ok := obs.DefaultTraces.Get(fields[0])
	if !ok {
		fmt.Fprintf(w, "ERR no trace %q (see TRACEDUMP for recent IDs)\n", fields[0])
		return
	}
	if len(fields) > 1 && strings.EqualFold(fields[1], "CHROME") {
		out, err := obs.ChromeTraceJSON(t.Root)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		writeLines(w, []string{string(out)})
		return
	}
	lines := []string{
		fmt.Sprintf("# trace %s %s %v", t.ID, t.Start.Format(time.RFC3339), t.Duration),
		"# query " + t.Query,
		"# " + t.Res.String(),
	}
	lines = append(lines, strings.Split(strings.TrimRight(t.Root.Render(), "\n"), "\n")...)
	writeLines(w, lines)
}

// checkOptions builds the verification context for CHECK: the live
// session's globals and registered procs are in scope (typed Any —
// their values are only known at run time), extension operations carry
// their real signatures, and bat() calls resolve against the store.
func (s *Server) checkOptions() *milcheck.Options {
	opts := &milcheck.Options{
		Globals:    map[string]milcheck.VType{},
		Funcs:      milcheck.ExtensionSigs(),
		KnownFuncs: s.interp.BuiltinNames(),
		ResolveBAT: milcheck.StoreResolver(s.cat.Store()),
	}
	for _, name := range s.interp.GlobalNames() {
		opts.Globals[name] = milcheck.Any()
	}
	for _, name := range s.interp.Procs() {
		opts.KnownFuncs = append(opts.KnownFuncs, name)
	}
	return opts
}

// writeLines emits a standard "OK <n>" body in one Write.
func writeLines(w io.Writer, lines []string) {
	w.Write(appendBody(fmt.Appendf(nil, "OK %d\n", len(lines)), lines))
}

// appendBody appends the body of a response or push frame: each line
// newline-terminated, then "END".
func appendBody(buf []byte, lines []string) []byte {
	for _, l := range lines {
		buf = append(append(buf, l...), '\n')
	}
	return append(buf, "END\n"...)
}

func (s *Server) execHMM(rest string, w io.Writer) {
	if s.pool == nil {
		fmt.Fprintln(w, "ERR no HMM pool attached")
		return
	}
	op, args, _ := strings.Cut(strings.TrimSpace(rest), " ")
	switch strings.ToUpper(op) {
	case "EVAL":
		model, obsCSV, ok := strings.Cut(strings.TrimSpace(args), " ")
		if !ok {
			fmt.Fprintln(w, "ERR usage: HMM EVAL <model> <obs,csv>")
			return
		}
		obs, err := parseObs(obsCSV)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		evals, err := s.pool.EvaluateAll(obs)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		for _, e := range evals {
			if e.Model == model {
				writeLines(w, []string{fmt.Sprintf("%g", e.LogLikelihood)})
				return
			}
		}
		fmt.Fprintf(w, "ERR unknown model %q\n", model)
	case "CLASSIFY":
		obs, err := parseObs(strings.TrimSpace(args))
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		best, err := s.pool.Classify(obs)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		writeLines(w, []string{best})
	default:
		fmt.Fprintf(w, "ERR unknown HMM operation %q\n", op)
	}
}

func parseObs(csv string) ([]int, error) {
	parts := strings.Split(csv, ",")
	obs := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad observation %q", p)
		}
		obs = append(obs, v)
	}
	return obs, nil
}

// subNum orders subscription IDs ("s12") numerically for listings.
func subNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "s"))
	return n
}

// Client is a minimal protocol client for the shell and tests. It is
// push-aware: EVENT frames arriving while a response is awaited are
// buffered and readable via NextEvent. Not safe for concurrent use.
type Client struct {
	conn    net.Conn
	r       *bufio.Reader
	pending []PushEvent
}

// PushEvent is one asynchronous notification frame: a standing
// query's full result set at a watermark.
type PushEvent struct {
	SubID     string
	Seq       int
	Watermark float64
	Lines     []string
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Do sends one request line and collects the response body. EVENT
// frames interleaved ahead of the response are buffered for NextEvent.
func (c *Client) Do(line string) ([]string, error) {
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		return nil, err
	}
	for {
		head, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		head = strings.TrimSpace(head)
		if strings.HasPrefix(head, "EVENT ") {
			ev, err := c.readFrame(head)
			if err != nil {
				return nil, err
			}
			c.pending = append(c.pending, ev)
			continue
		}
		if strings.HasPrefix(head, "ERR ") {
			return nil, fmt.Errorf("server: %s", strings.TrimPrefix(head, "ERR "))
		}
		if strings.HasPrefix(head, "BUSY ") {
			return nil, fmt.Errorf("server: %w: %s", admit.ErrBusy, strings.TrimPrefix(head, "BUSY "))
		}
		var out []string
		for {
			l, err := c.r.ReadString('\n')
			if err != nil {
				return nil, err
			}
			l = strings.TrimRight(l, "\n")
			if l == "END" {
				return out, nil
			}
			out = append(out, l)
		}
	}
}

// Subscribe registers a standing query and returns its subscription
// ID; matches arrive via NextEvent.
func (c *Client) Subscribe(coql string) (string, error) {
	lines, err := c.Do("SUBSCRIBE " + coql)
	if err != nil {
		return "", err
	}
	if len(lines) != 1 {
		return "", fmt.Errorf("server: unexpected SUBSCRIBE response %q", lines)
	}
	return lines[0], nil
}

// NextEvent returns the next pushed notification, blocking up to
// timeout for one to arrive (0 = block indefinitely).
func (c *Client) NextEvent(timeout time.Duration) (PushEvent, error) {
	if len(c.pending) > 0 {
		ev := c.pending[0]
		c.pending = c.pending[1:]
		return ev, nil
	}
	if timeout > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(timeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	head, err := c.r.ReadString('\n')
	if err != nil {
		return PushEvent{}, err
	}
	head = strings.TrimSpace(head)
	if !strings.HasPrefix(head, "EVENT ") {
		return PushEvent{}, fmt.Errorf("server: expected EVENT frame, got %q", head)
	}
	return c.readFrame(head)
}

// readFrame parses "EVENT <subID> <seq> <watermark> <n>" plus its n
// body lines and trailing END (the head line has been consumed).
func (c *Client) readFrame(head string) (PushEvent, error) {
	f := strings.Fields(head)
	if len(f) != 5 {
		return PushEvent{}, fmt.Errorf("server: malformed frame %q", head)
	}
	seq, err1 := strconv.Atoi(f[2])
	wm, err2 := strconv.ParseFloat(f[3], 64)
	n, err3 := strconv.Atoi(f[4])
	if err1 != nil || err2 != nil || err3 != nil || n < 0 {
		return PushEvent{}, fmt.Errorf("server: malformed frame %q", head)
	}
	ev := PushEvent{SubID: f[1], Seq: seq, Watermark: wm}
	for i := 0; i < n; i++ {
		l, err := c.r.ReadString('\n')
		if err != nil {
			return PushEvent{}, err
		}
		ev.Lines = append(ev.Lines, strings.TrimRight(l, "\n"))
	}
	end, err := c.r.ReadString('\n')
	if err != nil {
		return PushEvent{}, err
	}
	if strings.TrimSpace(end) != "END" {
		return PushEvent{}, fmt.Errorf("server: frame not END-terminated: %q", end)
	}
	return ev, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
