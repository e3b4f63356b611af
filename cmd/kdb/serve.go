package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kdb"
)

// runServe implements the `kdb serve` subcommand: a concurrent
// multi-tenant HTTP service over named knowledge bases. Tenants open
// lazily (one store directory per name under -root, or in memory),
// idle tenants are evicted, and every request is governed by the
// server-side quota ceiling; clients may tighten it per request but
// never loosen it.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kdb serve", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "localhost:8040", "listen address")
		root    = fs.String("root", "", "directory holding one store per knowledge base (default: in-memory tenants)")
		maxOpen = fs.Int("max-open", 8, "maximum simultaneously open knowledge bases")
		idle    = fs.Duration("idle", 5*time.Minute, "close knowledge bases unused for this long (negative = never)")
		cache   = fs.Int("prepared-cache", 256, "prepared-statement cache entries")

		maxInFlight = fs.Int("max-inflight", 256, "maximum concurrent requests before load shedding (0 = unbounded)")
		brkFails    = fs.Int("breaker-threshold", 3, "consecutive storage failures that trip a tenant into read-only degraded mode (negative = never)")
		brkCooldown = fs.Duration("breaker-cooldown", 5*time.Second, "how long a tripped tenant rejects writes before probing recovery")

		timeout  = fs.Duration("timeout", 5*time.Second, "per-request wall-time ceiling (0 = unlimited)")
		maxFacts = fs.Int("max-facts", 0, "per-request derived-fact ceiling (0 = unlimited)")
		maxIter  = fs.Int("max-iterations", 0, "per-request fixpoint-iteration ceiling (0 = unlimited)")
		maxProv  = fs.Int("max-prov", 0, "per-request provenance-witness ceiling (0 = unlimited)")

		queryLog  = fs.String("query-log", "", "append one JSONL record per query to FILE (includes tenant and client)")
		slowQuery = fs.Duration("slow-query", 0, "with -query-log, log only queries at least this slow")
		qlogMaxMB = fs.Int("query-log-max-mb", 0, "rotate the query log when it would exceed this many MB (0 = never)")
		qlogKeep  = fs.Int("query-log-keep", 3, "rotated query-log files to keep (FILE.1 .. FILE.N)")
		quiet     = fs.Bool("q", false, "suppress the startup banner")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: kdb serve [flags] (no positional arguments)")
	}

	// baseCtx bounds the server's background goroutines (the tenant
	// janitor): canceled as soon as a shutdown signal arrives, so they
	// stop sweeping while in-flight requests drain.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()

	cfg := kdb.ServerConfig{
		BaseContext:       baseCtx,
		Root:              *root,
		MaxOpenKBs:        *maxOpen,
		IdleTimeout:       *idle,
		PreparedCacheSize: *cache,
		MaxInFlight:       *maxInFlight,
		BreakerThreshold:  *brkFails,
		BreakerCooldown:   *brkCooldown,
		Registry:          kdb.NewMetricsRegistry(),
		// Spans stay in the tracer's recent ring (nothing is exported),
		// but the trace ids they issue — or adopt from an incoming W3C
		// traceparent — link query-log records and /v1/debug/activity
		// entries to the request that caused them.
		Tracer: kdb.NewTracer(),
		Ceiling: kdb.QueryLimits{
			MaxWall:              *timeout,
			MaxFacts:             *maxFacts,
			MaxIterations:        *maxIter,
			MaxProvenanceEntries: *maxProv,
		},
	}
	var qlw *kdb.RotatingWriter
	if *queryLog != "" {
		w, err := openQueryLog(*queryLog, *qlogMaxMB, *qlogKeep)
		if err != nil {
			return err
		}
		defer w.Close()
		qlw = w
		cfg.QueryLog = kdb.NewQueryLog(w, *slowQuery)
	}
	srv, err := kdb.NewServer(cfg)
	if err != nil {
		return err
	}

	// Bind before printing anything, so an occupied port is a clean
	// non-zero exit rather than a banner followed by a dead server.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if !*quiet {
		store := "in-memory tenants"
		if *root != "" {
			store = "root " + *root
		}
		fmt.Fprintf(out, "kdb serve on http://%s/ (%s)\n", ln.Addr(), store)
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigc)

	for {
		select {
		case sig := <-sigc:
			// SIGHUP is the logrotate handshake, not a shutdown: reopen
			// the query log (if any) and keep serving.
			if sig == syscall.SIGHUP {
				if qlw == nil {
					continue
				}
				if err := qlw.Reopen(); err != nil && !*quiet {
					fmt.Fprintf(out, "kdb serve: query log reopen: %v\n", err)
				} else if !*quiet {
					fmt.Fprintf(out, "kdb serve: %v: query log reopened\n", sig)
				}
				continue
			}
			if !*quiet {
				fmt.Fprintf(out, "kdb serve: %v: draining\n", sig)
			}
			cancelBase()
			// Stop accepting, let in-flight requests finish, then close the
			// tenants (which waits for any straggling evaluations).
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := hs.Shutdown(ctx); err != nil {
				srv.Close()
				return fmt.Errorf("shutdown: %w", err)
			}
			return srv.Close()
		case err := <-errc:
			srv.Close()
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		}
	}
}
