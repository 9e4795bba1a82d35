// Command cobra-cli is the interactive shell of the Cobra VDBMS: the
// text replacement for the paper's Java GUI (§5.6, Fig. 12). It
// evaluates COQL queries at the conceptual level and MIL statements at
// the physical level, either against a local snapshot (-db) or a
// remote cobra-server (-connect).
//
// Usage:
//
//	cobra-cli -db ./f1db
//	cobra-cli -connect localhost:4242
//
// Shell commands:
//
//	SELECT/RETRIEVE ...   COQL query
//	EXPLAIN <q>           the condition tree with access paths (no execution)
//	EXPLAIN ANALYZE <q>   the tree, then run the query and print its span tree
//	mil <statement>       MIL statement against the kernel
//	check <statement>     statically verify a MIL statement (milcheck)
//	trace                 list recent completed query traces
//	trace <id>            one trace's resource attribution and span tree
//	trace export <id> <f> write the trace as Chrome trace-event JSON
//	.videos               list videos
//	.features <video>     list materialized features
//	.plot <video> <feat>  text plot of a feature stream
//	.rule <file> <video>  derive compound events from a rule DSL file
//	.stats                store statistics
//	.help                 usage
//	.quit                 exit
//
// Against a remote server the same inspection goes through the
// TRACEDUMP protocol verb (lines are sent verbatim), and two extra
// shell commands drive standing queries (docs/STREAMING.md):
//
//	subscribe <coql>      register a standing query; prints its ID
//	follow [n]            block and print the next n pushed frames (default 1)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/mil"
	"cobra/internal/milcheck"
	"cobra/internal/monet"
	"cobra/internal/obs"
	"cobra/internal/query"
	"cobra/internal/rules"
	"cobra/internal/server"
)

func main() {
	db := flag.String("db", "", "snapshot directory to load (empty: fresh small corpus)")
	connect := flag.String("connect", "", "connect to a cobra-server instead of running locally")
	flag.Parse()

	if *connect != "" {
		if err := remoteShell(*connect); err != nil {
			fatal(err)
		}
		return
	}
	if err := localShell(*db); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cobra-cli:", err)
	os.Exit(1)
}

func localShell(db string) error {
	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	pre := cobra.NewPreprocessor(cat)

	if db != "" {
		if err := store.LoadSnapshot(db); err != nil {
			return err
		}
		fmt.Printf("loaded %d BATs from %s\n", store.Len(), db)
	} else {
		fmt.Println("no -db given: simulating a small corpus (this keeps dynamic extraction live)")
	}
	// Extraction engines stay registered either way, so queries that
	// need missing metadata trigger dynamic extraction.
	cfg := f1.DefaultExpConfig()
	cfg.RaceDur = 200
	cfg.TrainDur = 120
	cfg.EMIterations = 3
	corpus := f1.NewCorpus(cfg)
	if db == "" {
		if err := corpus.IngestVideos(cat); err != nil {
			return err
		}
	}
	corpus.RegisterExtractors(pre)

	eng := query.NewEngine(pre)
	interp := mil.NewInterp(store)
	in := bufio.NewScanner(os.Stdin)
	fmt.Println("Cobra VDBMS shell — .help for usage")
	for {
		fmt.Print("cobra> ")
		if !in.Scan() {
			return nil
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			return nil
		case line == ".help":
			printHelp()
		case line == ".videos":
			for _, v := range cat.Videos() {
				fmt.Println(" ", v)
			}
		case strings.HasPrefix(line, ".features"):
			video := strings.TrimSpace(strings.TrimPrefix(line, ".features"))
			for _, f := range cat.FeatureNames(video) {
				fmt.Println(" ", f)
			}
		case line == ".stats":
			st := store.Stats()
			fmt.Printf("  %d BATs, %d BUNs\n", st.BATs, st.BUNs)
			for _, prefix := range sortedKeys(st.ByPrefix) {
				fmt.Printf("    %-12s %d\n", prefix, st.ByPrefix[prefix])
			}
		case strings.HasPrefix(line, ".plot "):
			// .plot <video> <feature>: text plot of a feature stream.
			parts := strings.Fields(line)
			if len(parts) != 3 {
				fmt.Println("usage: .plot <video> <feature>")
				continue
			}
			f, err := cat.Feature(parts[1], parts[2])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("  %s/%s (%d samples at %g Hz)\n", parts[1], parts[2], len(f.Values), f.SampleRate)
			fmt.Println("  " + sparkline(f.Values))
		case strings.HasPrefix(line, ".export "):
			// .export <video> <file>: MPEG-7-style metadata export.
			parts := strings.Fields(line)
			if len(parts) != 3 {
				fmt.Println("usage: .export <video> <file>")
				continue
			}
			out, err := cobra.ExportMPEG7(cat, parts[1])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if err := os.WriteFile(parts[2], out, 0o644); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("  %d bytes written to %s\n", len(out), parts[2])
		case strings.HasPrefix(line, ".rule "):
			// .rule <file> <video>: define compound events from a rule
			// DSL file and materialize them (§5.6).
			parts := strings.Fields(line)
			if len(parts) != 3 {
				fmt.Println("usage: .rule <file> <video>")
				continue
			}
			src, err := os.ReadFile(parts[1])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			rs, err := rules.ParseRules(string(src))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			added, err := cobra.ApplyRules(cat, parts[2], rs)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("  %d events derived\n", added)
		case strings.ToLower(line) == "trace" || strings.HasPrefix(strings.ToLower(line), "trace "):
			traceCommand(strings.Fields(line)[1:])
		case strings.HasPrefix(strings.ToLower(line), "mil "):
			v, err := interp.Exec(strings.TrimPrefix(line[4:], " "))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(" ", v.String())
			for _, out := range interp.Output() {
				fmt.Println(" ", out)
			}
		case strings.HasPrefix(strings.ToLower(line), "check "):
			// check <mil>: static verification only, nothing executes.
			opts := &milcheck.Options{
				Globals:    map[string]milcheck.VType{},
				Funcs:      milcheck.ExtensionSigs(),
				KnownFuncs: append(interp.BuiltinNames(), interp.Procs()...),
				ResolveBAT: milcheck.StoreResolver(store),
			}
			for _, n := range interp.GlobalNames() {
				opts.Globals[n] = milcheck.Any()
			}
			diags, err := milcheck.CheckSource(strings.TrimSpace(line[6:]), opts)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if len(diags) == 0 {
				fmt.Println("  program OK")
				continue
			}
			for _, d := range diags {
				fmt.Println(" ", d)
			}
		case strings.HasPrefix(strings.ToUpper(line), "EXPLAIN "):
			// EXPLAIN [ANALYZE] <query>: the condition tree with access
			// paths; ANALYZE then runs the query and adds the span tree
			// across the conceptual/logical/physical levels.
			stmt := strings.TrimSpace(line[len("EXPLAIN "):])
			explain := eng.Explain
			if strings.HasPrefix(strings.ToUpper(stmt), "ANALYZE ") {
				stmt, explain = strings.TrimSpace(stmt[len("ANALYZE "):]), eng.ExplainAnalyze
			}
			lines, err := explain(stmt)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, l := range lines {
				fmt.Println("  " + l)
			}
		default:
			res, err := eng.Run(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printResults(res)
		}
	}
}

// traceCommand inspects the in-process ring of completed query
// traces: `trace` lists recent IDs, `trace <id>` prints one trace's
// resource attribution and span tree, and `trace export <id> <file>`
// writes it as Chrome trace-event JSON (load in about:tracing or
// Perfetto).
func traceCommand(args []string) {
	switch {
	case len(args) == 0:
		ts := obs.DefaultTraces.Recent()
		if len(ts) == 0 {
			fmt.Println("  (no traces yet — run a query first)")
			return
		}
		for _, t := range ts {
			head := fmt.Sprintf("  %s %-8v %s", t.ID, t.Duration.Round(time.Microsecond), t.Query)
			if t.Err != "" {
				head += " [error: " + t.Err + "]"
			}
			fmt.Println(head)
		}
	case args[0] == "export":
		if len(args) != 3 {
			fmt.Println("usage: trace export <id> <file>")
			return
		}
		t, ok := obs.DefaultTraces.Get(args[1])
		if !ok {
			fmt.Printf("error: no trace %q (run `trace` for recent IDs)\n", args[1])
			return
		}
		out, err := obs.ChromeTraceJSON(t.Root)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		if err := os.WriteFile(args[2], out, 0o644); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("  %d bytes written to %s\n", len(out), args[2])
	case len(args) == 1:
		t, ok := obs.DefaultTraces.Get(args[0])
		if !ok {
			fmt.Printf("error: no trace %q (run `trace` for recent IDs)\n", args[0])
			return
		}
		fmt.Printf("  # trace %s %s %v\n", t.ID, t.Start.Format(time.RFC3339), t.Duration)
		fmt.Printf("  # query %s\n", t.Query)
		fmt.Printf("  # %s\n", t.Res.String())
		for _, l := range strings.Split(strings.TrimRight(t.Root.Render(), "\n"), "\n") {
			fmt.Println("  " + l)
		}
	default:
		fmt.Println("usage: trace [<id> | export <id> <file>]")
	}
}

func printResults(res []query.Result) {
	if len(res) == 0 {
		fmt.Println("  (no segments)")
		return
	}
	for _, r := range res {
		attrs := ""
		for k, v := range r.Attrs {
			attrs += fmt.Sprintf(" %s=%s", k, v)
		}
		fmt.Printf("  [%7.1fs - %7.1fs] conf=%.2f%s\n", r.Interval.Start, r.Interval.End, r.Confidence, attrs)
	}
}

func printHelp() {
	fmt.Print(`  SELECT SEGMENTS FROM <video> WHERE <cond> [ORDER BY START|CONFIDENCE [DESC]] [LIMIT n]
    cond: EVENT('type'[, attr='v']) | TEXT CONTAINS 'WORD' |
          FEATURE('name') > 0.5 | OBJECT('NAME') | NOT cond |
          cond AND/OR cond | cond BEFORE/AFTER/DURING/OVERLAPS cond |
          cond WITHIN <n> OF cond
  EXPLAIN <query>           the condition tree evaluation walks, with access paths
  EXPLAIN ANALYZE <query>   the tree, then run the query and print its trace span tree
  mil <stmt>        MIL against the kernel, e.g. mil RETURN bat("cobra/videos").count;
  check <stmt>      statically verify MIL without running it (milcheck)
  trace             list recent completed query traces (newest first)
  trace <id>        one trace's resource attribution and span tree
  trace export <id> <file>  write the trace as Chrome trace-event JSON
  remote mode (-addr) also accepts the serving verbs, sent verbatim:
    CACHESTATS              result-cache counters
    AUTH <tenant> [token]   authenticate this connection
  .videos           list videos
  .features <v>     list materialized features of a video
  .plot <v> <feat>  text plot of a materialized feature stream
  .rule <file> <v>  derive compound events from a rule DSL file
  .export <v> <f>   write MPEG-7-style metadata XML to a file
  .quit             exit
`)
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sparkline renders a [0,1] series as a coarse text plot.
func sparkline(series []float64) string {
	const cols = 64
	glyphs := []rune(" .:-=+*#%@")
	if len(series) == 0 {
		return ""
	}
	out := make([]rune, cols)
	for c := 0; c < cols; c++ {
		lo := c * len(series) / cols
		hi := (c + 1) * len(series) / cols
		if hi <= lo {
			hi = lo + 1
		}
		m := 0.0
		for i := lo; i < hi && i < len(series); i++ {
			if series[i] > m {
				m = series[i]
			}
		}
		if m > 1 {
			m = 1
		}
		out[c] = glyphs[int(m*float64(len(glyphs)-1))]
	}
	return string(out)
}

func remoteShell(addr string) error {
	cl, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Printf("connected to %s — protocol lines are sent verbatim (.quit to exit)\n", addr)
	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("cobra> ")
		if !in.Scan() {
			return nil
		}
		line := strings.TrimSpace(in.Text())
		lower := strings.ToLower(line)
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			return nil
		case strings.HasPrefix(lower, "subscribe "):
			// subscribe <coql>: standing query; pushed frames arrive
			// asynchronously and are printed by `follow`.
			id, err := cl.Subscribe(strings.TrimSpace(line[len("subscribe "):]))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("  subscribed as %s — `follow <n>` prints pushed frames\n", id)
		case lower == "follow" || strings.HasPrefix(lower, "follow "):
			n := 1
			if parts := strings.Fields(line); len(parts) > 1 {
				v, err := strconv.Atoi(parts[1])
				if err != nil || v <= 0 {
					fmt.Println("usage: follow [n]")
					continue
				}
				n = v
			}
			for i := 0; i < n; i++ {
				ev, err := cl.NextEvent(30 * time.Second)
				if err != nil {
					fmt.Println("error:", err)
					break
				}
				printPushEvent(ev)
			}
		default:
			out, err := cl.Do(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, l := range out {
				fmt.Println(" ", l)
			}
		}
	}
}

// printPushEvent renders one asynchronous notification frame: the
// standing query's full result set at the frame's watermark.
func printPushEvent(ev server.PushEvent) {
	fmt.Printf("  EVENT %s seq=%d watermark=%.1fs (%d segments)\n",
		ev.SubID, ev.Seq, ev.Watermark, len(ev.Lines))
	for _, l := range ev.Lines {
		fmt.Println("   ", l)
	}
}
