package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"kdb"
)

// runTop implements the `kdb top` subcommand: a live view of the
// queries currently executing inside a `kdb serve` process, polled from
// its /v1/debug/activity endpoint — the operator's pg_stat_activity.
// With -cancel ID it cancels one in-flight query and exits; with -once
// it prints a single frame (for scripts and tests) instead of the
// refreshing display.
func runTop(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kdb top", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "http://localhost:8040", "base URL of the kdb serve process")
		interval = fs.Duration("interval", time.Second, "refresh interval")
		once     = fs.Bool("once", false, "print one frame and exit")
		cancelID = fs.Uint64("cancel", 0, "cancel the in-flight query with this id and exit")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: kdb top [-addr URL] [-interval DUR] [-once] [-cancel ID]")
	}
	base := strings.TrimSuffix(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 10 * time.Second}

	if *cancelID != 0 {
		return cancelQuery(client, base, *cancelID, out)
	}
	if *once {
		return topFrame(client, base, out, false)
	}

	// The refreshing view: clear the screen and redraw each interval
	// until interrupted.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	defer signal.Stop(sigc)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		if err := topFrame(client, base, out, true); err != nil {
			return err
		}
		select {
		case <-sigc:
			return nil
		case <-tick.C:
		}
	}
}

// cancelQuery posts the cancel for one activity id and reports the
// outcome.
func cancelQuery(client *http.Client, base string, id uint64, out io.Writer) error {
	resp, err := client.Post(fmt.Sprintf("%s/v1/debug/activity/%d/cancel", base, id), "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		fmt.Fprintf(out, "canceled query %d\n", id)
		return nil
	case http.StatusNotFound:
		return fmt.Errorf("no in-flight query with id %d", id)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("cancel: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
}

// topFrame fetches one activity snapshot (plus a few server gauges) and
// renders it. clear prefixes the ANSI clear-screen sequence for the
// refreshing display.
func topFrame(client *http.Client, base string, out io.Writer, clear bool) error {
	resp, err := client.Get(base + "/v1/debug/activity")
	if err != nil {
		return err
	}
	var body struct {
		Queries []kdb.ActivityInfo `json:"queries"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding %s/v1/debug/activity: %w", base, err)
	}
	gauges := scrapeGauges(client, base, "kdb_server_inflight", "kdb_server_open_kbs")

	var b strings.Builder
	if clear {
		b.WriteString("\x1b[2J\x1b[H")
	}
	fmt.Fprintf(&b, "kdb top — %s — %s\n", base, time.Now().Format("15:04:05"))
	fmt.Fprintf(&b, "%d in-flight", len(body.Queries))
	if v, ok := gauges["kdb_server_inflight"]; ok {
		fmt.Fprintf(&b, " · %s requests in data plane", v)
	}
	if v, ok := gauges["kdb_server_open_kbs"]; ok {
		fmt.Fprintf(&b, " · %s open KBs", v)
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%6s  %-10s  %-10s  %10s  %10s  %10s  %s\n",
		"ID", "KIND", "TENANT", "ELAPSED", "FACTS", "LOOKUPS", "STATEMENT")
	for _, q := range body.Queries {
		stmt := q.Statement
		if len(stmt) > 60 {
			stmt = stmt[:57] + "..."
		}
		if q.Canceled {
			stmt += "  [canceling]"
		}
		fmt.Fprintf(&b, "%6d  %-10s  %-10s  %9.0fms  %10d  %10d  %s\n",
			q.ID, q.Kind, q.Tenant, q.ElapsedMS, q.Facts, q.Lookups, stmt)
	}
	if len(body.Queries) == 0 {
		b.WriteString("(no queries in flight)\n")
	}
	_, err = io.WriteString(out, b.String())
	return err
}

// scrapeGauges pulls named single-valued samples out of the server's
// Prometheus text exposition; missing names are simply absent from the
// result (the view degrades gracefully when /metrics is unavailable).
func scrapeGauges(client *http.Client, base string, names ...string) map[string]string {
	out := make(map[string]string, len(names))
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 4<<20))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, n := range names {
			if strings.HasPrefix(line, n+" ") {
				out[n] = strings.TrimSpace(strings.TrimPrefix(line, n))
			}
		}
	}
	return out
}
