// Command kdb is an interactive shell and batch runner for knowledge-rich
// databases: the single coherent instrument of the paper, accepting both
// data queries (retrieve) and knowledge queries (describe, compare).
//
// Usage:
//
//	kdb [flags] [program.kdb ...]
//	kdb check [-json] [-strict] program.kdb ...
//	kdb serve [-addr HOST:PORT] [-root DIR] [-max-open N] [-idle DUR] ...
//	kdb top [-addr URL] [-interval DUR] [-once] [-cancel ID]
//
// The serve subcommand exposes named knowledge bases over HTTP+JSON:
// multi-tenant (one store per name under -root, or in-memory), with
// prepared parameterized statements, per-request quota clamping, and
// the metrics/pprof debug surface on the same address.
//
// With -exec the given queries run and the program exits; otherwise an
// interactive prompt reads statements (terminated by '.') and meta
// commands (starting with '.'). Type `.help` at the prompt.
//
// The check subcommand runs the static-analysis suite over program
// files: source-anchored diagnostics (safety, arity, undefined/unused
// predicates, recursion classification, contradictions, duplicate
// rules) print per file, human-readable by default or as JSON with
// -json. A file with no static errors is then loaded into a scratch
// in-memory database and its shipped facts are checked against its
// integrity constraints. Exit status is 1 when any file has
// error-severity diagnostics or constraint violations (or warnings,
// with -strict). The -lint flag of the main command prints the same
// report after loading program files.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"

	"kdb"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kdb:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	if len(args) > 0 && args[0] == "check" {
		return runCheck(args[1:], out)
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], out)
	}
	if len(args) > 0 && args[0] == "top" {
		return runTop(args[1:], out)
	}
	fs := flag.NewFlagSet("kdb", flag.ContinueOnError)
	var (
		dbDir    = fs.String("db", "", "durable database directory (default: in-memory)")
		exec     = fs.String("exec", "", "execute the given queries and exit")
		quiet    = fs.Bool("q", false, "suppress the banner and prompts")
		stats    = fs.Bool("stats", false, "print evaluation statistics after each retrieve")
		timeout  = fs.Duration("timeout", 0, "per-query wall-time limit (0 = unlimited)")
		maxFacts = fs.Int("max-facts", 0, "per-query derived-fact limit (0 = unlimited)")
		lint     = fs.Bool("lint", false, "print the static-analysis report after loading program files")

		statsJSON   = fs.Bool("stats-json", false, "print evaluation statistics as JSON after each retrieve (implies -stats)")
		traceFile   = fs.String("trace", "", "record a span trace of every query to FILE")
		traceFormat = fs.String("trace-format", "jsonl", "trace file format: jsonl (one span per line) or chrome (trace-event JSON for Perfetto)")
		debugAddr   = fs.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. localhost:6060)")
		queryLog    = fs.String("query-log", "", "append one JSONL record per query to FILE (statement, kind, latency, stop reason, eval deltas)")
		slowQuery   = fs.Duration("slow-query", 0, "with -query-log, log only queries at least this slow (0 = every query)")
		qlogMaxMB   = fs.Int("query-log-max-mb", 0, "rotate the query log when it would exceed this many MB (0 = never)")
		qlogKeep    = fs.Int("query-log-keep", 3, "rotated query-log files to keep (FILE.1 .. FILE.N)")
		maxProv     = fs.Int("max-prov", 0, "per-query provenance-witness limit for explain (0 = unlimited)")
		profileOn   = fs.Bool("profile", false, "profile every retrieve: print the per-rule cost breakdown after the answers")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := []kdb.Option{
		kdb.WithQueryLimits(kdb.QueryLimits{
			MaxWall:              *timeout,
			MaxFacts:             *maxFacts,
			MaxProvenanceEntries: *maxProv,
		}),
	}

	// Structured query log: one JSONL line per query (or only slow
	// ones), size-rotated when -query-log-max-mb is set, reopened on
	// SIGHUP for external rotation.
	if *queryLog != "" {
		w, err := openQueryLog(*queryLog, *qlogMaxMB, *qlogKeep)
		if err != nil {
			return err
		}
		defer w.Close()
		defer reopenOnHUP(w, out)()
		opts = append(opts, kdb.WithQueryLog(kdb.NewQueryLog(w, *slowQuery)))
	}

	// Tracing: spans stream to the trace file as each query finishes
	// (JSONL), or buffer until exit (the Chrome format is one JSON array).
	var tracer *kdb.Tracer
	fileTrace := *traceFile != ""
	if fileTrace {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		tracer = kdb.NewTracer()
		switch *traceFormat {
		case "jsonl":
			tracer.OnFinish(func(root *kdb.Span) { kdb.WriteTraceJSONL(f, root) })
		case "chrome":
			var roots []*kdb.Span
			tracer.OnFinish(func(root *kdb.Span) { roots = append(roots, root) })
			defer func() { kdb.WriteChromeTrace(f, roots) }()
		default:
			return fmt.Errorf("unknown trace format %q (want jsonl or chrome)", *traceFormat)
		}
		opts = append(opts, kdb.WithTracer(tracer))
	}

	// The debug endpoint carries the metrics registry; without it no
	// metrics are collected.
	if *debugAddr != "" {
		reg := kdb.NewMetricsRegistry()
		opts = append(opts, kdb.WithMetrics(reg))
		opts = append(opts, kdb.WithQueryStats())
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		if !*quiet {
			fmt.Fprintf(out, "debug server on http://%s/ (metrics, expvar, pprof)\n", ln.Addr())
		}
		// A failing debug server must not be silent: earlier versions
		// discarded http.Serve's error, so a mid-session failure looked
		// like a healthy endpoint that never answered. The expected
		// error when the deferred Close tears the listener down at exit
		// stays quiet.
		go func() {
			if err := http.Serve(ln, kdb.DebugHandler(reg)); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "kdb: debug server:", err)
			}
		}()
	}
	var k *kdb.KB
	var err error
	if *dbDir != "" {
		k, err = kdb.Open(*dbDir, opts...)
		if err != nil {
			return err
		}
		defer k.Close()
	} else {
		k = kdb.New(opts...)
	}
	if *profileOn {
		k.SetProfiling(true)
	}
	sh := &shell{k: k, stats: *stats || *statsJSON, statsJSON: *statsJSON, tracer: tracer, fileTrace: fileTrace}

	// Ctrl-C cancels the in-flight query instead of killing the process;
	// at an idle prompt it prints a hint.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer func() { signal.Stop(sigc); close(sigc) }()
	go func() {
		for range sigc {
			sh.interrupt(out)
		}
	}()
	for _, path := range fs.Args() {
		if err := k.LoadFile(path); err != nil {
			return fmt.Errorf("loading %s: %w", path, err)
		}
		if !*quiet {
			fmt.Fprintf(out, "loaded %s (%d facts, %d rules)\n", path, k.FactCount(), len(k.Rules()))
		}
	}
	if *lint {
		if rep := k.Diagnostics(); rep != nil {
			fmt.Fprint(out, rep)
		}
	}

	if *exec != "" {
		queries, err := kdb.ParseQueries(*exec)
		if err != nil {
			return err
		}
		for _, q := range queries {
			ctx, done := sh.queryContext()
			var res *kdb.ExecResult
			if len(queries) == 1 {
				// Single statement: run through the string path, so a
				// trace records the parse phase too.
				res, err = k.ExecStringContext(ctx, *exec)
			} else {
				res, err = k.ExecContext(ctx, q)
			}
			done()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, res)
			sh.printStats(res, nil, out)
		}
		return nil
	}

	return sh.repl(in, out, *quiet)
}

// openQueryLog opens the query-log sink: a rotating writer even when
// size rotation is off (maxMB <= 0), so SIGHUP can always reopen the
// file after an external rotation.
func openQueryLog(path string, maxMB, keep int) (*kdb.RotatingWriter, error) {
	return kdb.NewRotatingWriter(path, maxMB, keep)
}

// reopenOnHUP reopens the query log whenever the process receives
// SIGHUP (the logrotate convention); the returned stop function ends
// the watcher. Reopen failures are reported once per signal and do not
// kill the process.
func reopenOnHUP(w *kdb.RotatingWriter, out io.Writer) (stop func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-sigc:
				if err := w.Reopen(); err != nil {
					fmt.Fprintf(out, "kdb: query log reopen: %v\n", err)
				}
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(sigc)
		close(done)
	}
}

// checkedFile is the per-file outcome of `kdb check`, shaped for both
// renderings: the JSON output is an array of these.
type checkedFile struct {
	File string `json:"file"`
	// Report is the analysis report; nil when the file did not parse.
	Report *kdb.Report `json:"report,omitempty"`
	// Error is the parse failure, or a failure of the data pass.
	Error string `json:"error,omitempty"`
	// Violations are the integrity-constraint violations of the
	// file's own facts, one message per violating instance.
	Violations []string `json:"violations,omitempty"`
}

// runCheck implements the `kdb check` subcommand: the static-analysis
// suite over program files, then, for a file without static errors, its
// facts against its integrity constraints.
func runCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kdb check", flag.ContinueOnError)
	var (
		asJSON = fs.Bool("json", false, "emit the reports as JSON")
		strict = fs.Bool("strict", false, "treat warnings as errors for the exit status")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: kdb check [-json] [-strict] program.kdb ...")
	}
	var results []checkedFile
	failed := 0
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			results = append(results, checkedFile{File: path, Error: err.Error()})
			failed++
			continue
		}
		prog, err := kdb.ParseProgramFile(path, string(src))
		if err != nil {
			results = append(results, checkedFile{File: path, Error: err.Error()})
			failed++
			continue
		}
		r := checkedFile{File: path, Report: kdb.Analyze(prog)}
		if !r.Report.HasErrors() {
			if r.Violations, err = checkData(prog); err != nil {
				r.Error = err.Error()
			}
		}
		if r.Report.HasErrors() || r.Error != "" || len(r.Violations) > 0 ||
			(*strict && len(r.Report.Warnings()) > 0) {
			failed++
		}
		results = append(results, r)
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	} else {
		for _, r := range results {
			if r.Report != nil {
				if len(results) > 1 {
					fmt.Fprintf(out, "== %s\n", r.File)
				}
				fmt.Fprint(out, r.Report)
			}
			if r.Error != "" {
				fmt.Fprintf(out, "%s: error: %s\n", r.File, r.Error)
			}
			for _, v := range r.Violations {
				fmt.Fprintf(out, "%s: error: %s\n", r.File, v)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("check: %d of %d file(s) failed", failed, len(results))
	}
	return nil
}

// checkData loads a program into a scratch in-memory KB and checks its
// facts against its integrity constraints: the data-level pass the
// static suite cannot do.
func checkData(prog *kdb.Program) ([]string, error) {
	k := kdb.New()
	if err := k.LoadProgram(prog); err != nil {
		return nil, err
	}
	return k.CheckConstraintsContext(context.Background())
}

// shell bundles the KB with the REPL's display switches and the
// cancellation handle of the in-flight query.
type shell struct {
	k         *kdb.KB
	stats     bool
	statsJSON bool

	// tracer is the span tracer attached to the KB (by -trace, or
	// lazily by `.trace on`); fileTrace marks it as exporting to a file,
	// so `.trace off` only stops the console display without detaching.
	tracer    *kdb.Tracer
	fileTrace bool
	traceTree bool

	mu     sync.Mutex
	cancel context.CancelFunc
}

// queryContext registers a cancelable context for one query. The
// returned done func unregisters it and releases the context.
func (sh *shell) queryContext() (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	sh.mu.Lock()
	sh.cancel = cancel
	sh.mu.Unlock()
	return ctx, func() {
		sh.mu.Lock()
		sh.cancel = nil
		sh.mu.Unlock()
		cancel()
	}
}

// interrupt cancels the in-flight query, if any.
func (sh *shell) interrupt(out io.Writer) {
	sh.mu.Lock()
	cancel := sh.cancel
	sh.mu.Unlock()
	if cancel != nil {
		cancel()
		return
	}
	fmt.Fprintln(out, "\ninterrupt: no query in flight (.quit to leave)")
}

// printStats emits a statement's evaluation record when -stats is on:
// the result's, or, on a governed stop, the stop's. A statement that
// evaluated nothing prints nothing.
func (sh *shell) printStats(res *kdb.ExecResult, err error, out io.Writer) {
	if !sh.stats {
		return
	}
	var st *kdb.EvalStats
	var se *kdb.StopError
	switch {
	case res != nil:
		st = res.Stats
	case errors.As(err, &se):
		st = se.Stats
	}
	if st == nil {
		return
	}
	if sh.statsJSON {
		b, err := json.Marshal(st)
		if err != nil {
			fmt.Fprintln(out, "stats: error:", err)
			return
		}
		fmt.Fprintf(out, "stats: %s\n", b)
		return
	}
	fmt.Fprintln(out, "stats:", st)
}

// printTrace renders the last query's span tree when `.trace on` is
// active.
func (sh *shell) printTrace(out io.Writer) {
	if !sh.traceTree || sh.tracer == nil {
		return
	}
	if root := sh.tracer.Last(); root != nil {
		kdb.WriteTraceTree(out, root)
	}
}

func (sh *shell) repl(in io.Reader, out io.Writer, quiet bool) error {
	if !quiet {
		fmt.Fprintln(out, "kdb — querying database knowledge (retrieve / describe / compare; .help for help)")
	}
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if quiet {
			return
		}
		if buf.Len() == 0 {
			fmt.Fprint(out, "kdb> ")
		} else {
			fmt.Fprint(out, "...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			prompt()
			continue
		case isMetaLine(line):
			// Meta commands are recognized even while a multi-line
			// statement is being buffered; earlier versions fed them to
			// the parser, which produced a baffling syntax error.
			if quit := sh.metaCommand(line, out); quit {
				return nil
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte(' ')
		if strings.HasSuffix(line, ".") {
			stmt := buf.String()
			buf.Reset()
			sh.execute(stmt, out)
		}
		prompt()
	}
	return scanner.Err()
}

// execute runs one statement: a query, or a program fragment (facts and
// rules are loaded directly, so the shell doubles as a data-entry tool).
func (sh *shell) execute(stmt string, out io.Writer) {
	k := sh.k
	trimmed := strings.TrimSpace(stmt)
	for _, kw := range []string{"retrieve", "describe", "compare", "explain", "profile"} {
		if strings.HasPrefix(trimmed, kw) {
			ctx, done := sh.queryContext()
			res, err := k.ExecStringContext(ctx, stmt)
			done()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				sh.printStats(nil, err, out)
				sh.printTrace(out)
				return
			}
			fmt.Fprintln(out, res)
			sh.printStats(res, nil, out)
			sh.printTrace(out)
			return
		}
	}
	if err := k.LoadString(stmt); err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprintln(out, "ok")
}

// isMetaLine reports whether a REPL input line is a meta command: a dot
// followed by a letter (".help", ".trace on"). A lone "." (a statement
// terminator on its own line) and dotted data (".5") are not meta.
func isMetaLine(line string) bool {
	return len(line) > 1 && line[0] == '.' &&
		(line[1] >= 'a' && line[1] <= 'z' || line[1] >= 'A' && line[1] <= 'Z')
}

// metaNames lists every meta command the REPL understands, for the
// unknown-command message.
var metaNames = []string{
	".check", ".checkpoint", ".exit", ".explain", ".help",
	".intensional", ".load", ".preds", ".profile",
	".provenance", ".quit", ".rules", ".stats", ".trace", ".validate",
}

// onOff renders a toggle's current state.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// parseToggle interprets a toggle meta command: with no argument it
// reports the current state; with on/off it returns the new state.
// ok is false when the argument is malformed.
func parseToggle(fields []string, cur bool) (val, set, ok bool) {
	switch {
	case len(fields) == 1:
		return cur, false, true
	case len(fields) == 2 && (fields[1] == "on" || fields[1] == "off"):
		return fields[1] == "on", true, true
	default:
		return false, false, false
	}
}

func (sh *shell) metaCommand(line string, out io.Writer) (quit bool) {
	k := sh.k
	fields := strings.Fields(line)
	switch fields[0] {
	case ".quit", ".exit":
		return true
	case ".help":
		fmt.Fprint(out, `statements (end with '.'):
  student(ann, math, 3.9).                          add a fact
  honor(X) :- student(X, M, G), G > 3.7.            add a rule
  retrieve honor(X) where enroll(X, databases).     data query
  describe can_ta(X, databases) where student(X, math, V) and V > 3.7.
  describe honor(X) where necessary complete(X, C, S, G).
  describe can_ta(X, Y) where not honor(X).         is honor necessary?
  describe where student(X, M, G) and G < 3.5 and can_ta(X, C).
  describe * where honor(X).                        what follows from honor?
  describe honor(X) where p(X) or q(X).             disjunctive hypothesis
  compare (describe honor(X)) with (describe deans_list(X)).
  explain reachable(sfo, cdg).                      why is this fact derivable?
  profile reachable(sfo, X).                        per-rule cost breakdown
meta commands:
  .load FILE     load a program file
  .rules         list the IDB rules
  .preds         list the catalog
  .validate      check the §2.1 recursion discipline
  .check         print the static-analysis report of the loaded program
  .stats [on|off]   print evaluation statistics after each retrieve
  .profile [on|off] profile every retrieve (per-rule cost breakdown)
  .trace [on|off]   print a span tree (parse/analyze/eval/describe) after each query
  .intensional [on|off]   answer data queries with knowledge attached
provenance:
  .explain STMT          shorthand for 'explain STMT.' — print the
                         derivation tree of each answer (why-provenance)
  .provenance [on|off]   show the rules behind each describe answer
  (toggles with no argument print their current state)
other:
  .checkpoint    fold the WAL into a snapshot (durable databases)
  .quit          leave
`)
	case ".load":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: .load FILE")
			return false
		}
		if err := k.LoadFile(fields[1]); err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		fmt.Fprintf(out, "loaded %s (%d facts, %d rules)\n", fields[1], k.FactCount(), len(k.Rules()))
	case ".rules":
		for _, r := range k.Rules() {
			fmt.Fprintln(out, r)
		}
	case ".preds":
		fmt.Fprint(out, k.Catalog())
	case ".validate":
		issues := k.Validate()
		ctx, done := sh.queryContext()
		violations, err := k.CheckConstraintsContext(ctx)
		done()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		if len(issues) == 0 && len(violations) == 0 {
			fmt.Fprintln(out, "ok: rules are disciplined and the data satisfies all constraints")
			return false
		}
		for _, s := range issues {
			fmt.Fprintln(out, "warning:", s)
		}
		for _, s := range violations {
			fmt.Fprintln(out, "violation:", s)
		}
	case ".check":
		if rep := k.Diagnostics(); rep != nil {
			fmt.Fprint(out, rep)
		} else {
			fmt.Fprintln(out, "nothing loaded yet")
		}
	case ".stats":
		val, set, ok := parseToggle(fields, sh.stats)
		if !ok {
			fmt.Fprintln(out, "usage: .stats [on|off]")
			return false
		}
		if set {
			sh.stats = val
		}
		fmt.Fprintln(out, "stats:", onOff(sh.stats))
	case ".profile":
		val, set, ok := parseToggle(fields, k.Profiling())
		if !ok {
			fmt.Fprintln(out, "usage: .profile [on|off]")
			return false
		}
		if set {
			k.SetProfiling(val)
		}
		fmt.Fprintln(out, "profile:", onOff(k.Profiling()))
	case ".trace":
		val, set, ok := parseToggle(fields, sh.traceTree)
		if !ok {
			fmt.Fprintln(out, "usage: .trace [on|off]")
			return false
		}
		if set && val {
			if sh.tracer == nil {
				sh.tracer = kdb.NewTracer()
			}
			k.SetTracer(sh.tracer)
			sh.traceTree = true
		} else if set {
			sh.traceTree = false
			if !sh.fileTrace {
				k.SetTracer(nil)
			}
		}
		fmt.Fprintln(out, "trace:", onOff(sh.traceTree))
	case ".intensional":
		val, set, ok := parseToggle(fields, k.Intensional())
		if !ok {
			fmt.Fprintln(out, "usage: .intensional [on|off]")
			return false
		}
		if set {
			k.SetIntensional(val)
		}
		fmt.Fprintln(out, "intensional answers:", onOff(k.Intensional()))
	case ".provenance":
		val, set, ok := parseToggle(fields, k.Provenance())
		if !ok {
			fmt.Fprintln(out, "usage: .provenance [on|off]")
			return false
		}
		if set {
			k.SetProvenance(val)
		}
		fmt.Fprintln(out, "provenance:", onOff(k.Provenance()))
	case ".explain":
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: .explain p(a, b) [where ...]")
			return false
		}
		stmt := "explain " + strings.TrimSpace(strings.TrimPrefix(line, ".explain"))
		if !strings.HasSuffix(stmt, ".") {
			stmt += "."
		}
		sh.execute(stmt, out)
	case ".checkpoint":
		ctx, done := sh.queryContext()
		err := k.CheckpointContext(ctx)
		done()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprintln(out, "checkpointed")
		}
	default:
		names := append([]string(nil), metaNames...)
		sort.Strings(names)
		fmt.Fprintf(out, "unknown command %s; known commands: %s (.help for details)\n",
			fields[0], strings.Join(names, " "))
	}
	return false
}
