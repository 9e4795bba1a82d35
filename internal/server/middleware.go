package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cobra/internal/obs"
	"cobra/internal/qcache"
	"cobra/internal/query"
)

// The serving pipeline. Every request line — whether it arrived over
// TCP or through the in-process Serve entry point — flows through the
// same composable middleware chain before reaching the verb
// dispatcher:
//
//	auth -> cache -> admit -> execute
//
// Each stage is a plain func(Handler) Handler, so the order is
// spelled in exactly one place (buildChain) and a stage that has
// nothing to say about a request costs one function call. The order
// is deliberate: authentication is checked before any work; a cache
// hit is served before admission control, so a loaded server keeps
// answering repeated queries from memory even while it sheds fresh
// work; and only requests that will actually execute occupy an
// admission slot. The cache stage is on exactly when a result cache
// is attached, the admission stage exactly when a controller is.

// Serving metrics.
var (
	cBusy       = obs.C("server.busy_responses")
	cAuthDenied = obs.C("server.auth_denied")
)

// Request is one protocol line flowing through the middleware chain.
type Request struct {
	// Ctx carries the request context (traces ride on it).
	Ctx context.Context
	// Line is the full request line; Verb its upper-cased first word
	// and Rest everything after it.
	Line, Verb, Rest string
	// Tenant identifies the caller for rate limits: the AUTH identity,
	// or "anon" before AUTH.
	Tenant string
	// Authed reports whether the connection presented credentials.
	Authed bool
	// Stmt is the COQL statement the cache stage parsed, handed on so
	// execution runs its AST instead of parsing the text again; nil
	// when no stage parsed the request.
	Stmt *query.Statement
}

// newRequest splits a protocol line into a Request.
func newRequest(ctx context.Context, line, tenant string, authed bool) *Request {
	verb, rest, _ := strings.Cut(line, " ")
	return &Request{
		Ctx:    ctx,
		Line:   line,
		Verb:   strings.ToUpper(verb),
		Rest:   rest,
		Tenant: tenant,
		Authed: authed,
	}
}

// Handler answers one request, writing a complete wire response.
type Handler func(req *Request, w io.Writer)

// Middleware wraps a Handler with one serving concern.
type Middleware func(next Handler) Handler

// Chain composes middlewares around a terminal handler, outermost
// first: Chain(h, a, b) runs a, then b, then h.
func Chain(h Handler, mw ...Middleware) Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// buildChain assembles the serving pipeline around a terminal
// executor. The connection loop passes a terminal that also knows the
// connection-scoped streaming verbs; Serve passes the bare dispatcher.
func (s *Server) buildChain(terminal Handler) Handler {
	return Chain(terminal, s.authStage, s.cacheStage, s.admitStage)
}

// Serve runs one protocol line through the full middleware chain —
// the in-process equivalent of a TCP request, used by tests and
// benchmarks. Execute, by contrast, dispatches the verb directly with
// no serving stages.
func (s *Server) Serve(line string, w io.Writer) {
	s.ServeCtx(context.Background(), line, w)
}

// ServeCtx is Serve under a caller context. In-process callers are
// implicitly authenticated as tenant "local".
func (s *Server) ServeCtx(ctx context.Context, line string, w io.Writer) {
	s.inprocOnce.Do(func() {
		s.inproc = s.buildChain(func(req *Request, w io.Writer) {
			s.execute(req.Ctx, req.Line, req.Stmt, w)
		})
	})
	s.inproc(newRequest(ctx, line, "local", true), w)
}

// heavyVerb reports whether a verb does engine or kernel work worth
// an admission slot. Everything else — PING, STATS, introspection,
// subscription management — is answered unconditionally: an operator
// debugging an overloaded server must not be shed by it.
func heavyVerb(v string) bool {
	switch v {
	case "COQL", "SELECT", "RETRIEVE", "MIL", "HMM", "TRACE", "EXPLAIN", "CHECK", "EXPORT":
		return true
	}
	return false
}

// queryVerb reports whether a verb is a plain one-shot COQL query —
// the only response shape the result cache stores.
func queryVerb(v string) bool {
	return v == "COQL" || v == "SELECT" || v == "RETRIEVE"
}

// authStage rejects heavy verbs from unauthenticated connections when
// the server requires a token. Introspection verbs stay open: PING
// and STATS answering is how an operator discovers the server is
// alive but locked.
func (s *Server) authStage(next Handler) Handler {
	return func(req *Request, w io.Writer) {
		if req.Tenant == "" {
			req.Tenant = "anon"
		}
		s.mu.Lock()
		tokenRequired := s.authToken != ""
		s.mu.Unlock()
		if tokenRequired && !req.Authed && heavyVerb(req.Verb) {
			cAuthDenied.Inc()
			fmt.Fprintln(w, "ERR authentication required (AUTH <tenant> <token>)")
			return
		}
		next(req, w)
	}
}

// rawResponse carries a downstream response the cache stage must
// relay verbatim instead of caching: an ERR, a BUSY, anything that is
// not a well-formed OK body.
type rawResponse struct{ resp []byte }

func (r *rawResponse) Error() string { return "server: uncacheable response" }

// cacheStage serves one-shot COQL queries from the semantic result
// cache. Keyed on the statement's canonical form and fingerprinted by
// its dependency BAT epochs, a hit writes the stored response in one
// Write — byte-identical to execution, because the stored bytes ARE a
// previous execution's response — without touching the engine, the
// kernel pool, or the admission controller. A miss executes through
// the rest of the chain (so fresh work still pays admission) into a
// capture buffer, and concurrent identical misses collapse into one
// execution. The statement is parsed here once: the parse rides on
// the request into execution.
func (s *Server) cacheStage(next Handler) Handler {
	return func(req *Request, w io.Writer) {
		cache := s.Cache()
		if cache == nil || !queryVerb(req.Verb) {
			next(req, w)
			return
		}
		stmt := req.Rest
		if req.Verb != "COQL" {
			stmt = req.Line // SELECT/RETRIEVE given directly
		}
		req.Stmt = query.ParseStatement(stmt)
		if req.Stmt.Err != nil {
			// Let the engine surface parse errors with its own wording.
			next(req, w)
			return
		}
		key := req.Stmt.Query.Canonical()
		// The fingerprint is observed BEFORE execution: a write racing
		// the miss leaves the stored entry stale by its own fingerprint,
		// so the race resolves to a recomputation, never a stale serve.
		fp := qcache.Fingerprint(s.cat.Store(), query.DepNamesOf(req.Stmt.Query))
		resp, hit, err := cache.Do(key, fp, func() ([]byte, error) {
			var buf bytes.Buffer
			next(req, &buf)
			resp := buf.Bytes()
			if !bytes.HasPrefix(resp, []byte("OK ")) || !bytes.HasSuffix(resp, []byte("\nEND\n")) {
				return nil, &rawResponse{resp}
			}
			return resp, nil
		})
		if err != nil {
			if raw, ok := err.(*rawResponse); ok {
				w.Write(raw.resp)
				return
			}
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		if hit {
			s.traceCacheHit(stmt, resp)
		}
		w.Write(resp)
	}
}

// traceCacheHit records a cache-served query in the trace ring, so
// TRACEDUMP shows cached answers alongside executed ones instead of
// queries silently vanishing from the timeline when the cache warms.
// Its rows returned are the count in the response's "OK <n>" header.
func (s *Server) traceCacheHit(stmt string, resp []byte) {
	head, _, _ := bytes.Cut(resp[len("OK "):], []byte{'\n'})
	nLines, _ := strconv.Atoi(string(head))
	root := obs.StartTrace("coql.query")
	root.SetAttr("level", "conceptual")
	root.SetAttr("query", stmt)
	root.SetAttr("cache", "hit")
	root.Resources().RowsReturned.Store(int64(nLines))
	stat := root.Resources().Stat()
	root.SetAttr("resources", stat.String())
	d := root.Finish()
	obs.DefaultTraces.Add(obs.Trace{
		ID:       root.TraceID(),
		Query:    stmt,
		Start:    root.StartTime(),
		Duration: d,
		Res:      stat,
		Root:     root,
	})
}

// admitStage charges heavy verbs against the admission controller. A
// shed request is answered with a one-line BUSY frame — the wire-level
// cousin of ERR that tells clients "retry later" — and never reaches
// the engine: shedding costs the server a map lookup, not a worker.
func (s *Server) admitStage(next Handler) Handler {
	return func(req *Request, w io.Writer) {
		adm := s.Admission()
		if adm == nil || !heavyVerb(req.Verb) {
			next(req, w)
			return
		}
		release, err := adm.Acquire(req.Tenant)
		if err != nil {
			cBusy.Inc()
			fmt.Fprintf(w, "BUSY %v\n", strings.TrimPrefix(err.Error(), "busy: "))
			return
		}
		defer release()
		next(req, w)
	}
}
