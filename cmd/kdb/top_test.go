package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestTopFrameHistorySection: a frame against a fake server renders the
// activity table and the scraped gauges, asks for nothing else, and has
// no history section (the metrics history is gone from the server).
func TestTopFrameHistorySection(t *testing.T) {
	var (
		mu    sync.Mutex
		paths []string
	)
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		switch r.URL.Path {
		case "/v1/debug/activity":
			w.Write([]byte(`{"queries": [{"id": 7, "kind": "retrieve", "tenant": "uni", "statement": "retrieve honor(X)."}]}`))
		case "/metrics":
			w.Write([]byte("kdb_server_inflight 1\nkdb_server_open_kbs 2\n"))
		default:
			http.NotFound(w, r)
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out strings.Builder
	if err := topFrame(ts.Client(), ts.URL, &out, false); err != nil {
		t.Fatal(err)
	}
	frame := out.String()
	for _, want := range []string{"1 in-flight", "1 requests in data plane", "2 open KBs", "retrieve honor(X).", "uni"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame lacks %q:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "history") {
		t.Errorf("frame has a history section:\n%s", frame)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := strings.Join(paths, " "); got != "/v1/debug/activity /metrics" {
		t.Errorf("frame fetched %s, want only the activity listing and /metrics", got)
	}
}
