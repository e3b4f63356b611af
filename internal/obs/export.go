package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// jsonlSpan is the wire form of one span in JSONL export: one JSON
// object per line, spans in depth-first (pre-order) order, children
// referring to their parent by index.
type jsonlSpan struct {
	ID     int `json:"id"`
	Parent int `json:"parent"` // -1 for the root
	// SpanID is the process-unique Span.ID(), emitted on root records
	// only so query-log lines (whose trace_id is the same counter) join
	// against trace files; within-trace parent links use the relative
	// ids above.
	SpanID  uint64         `json:"span_id,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"` // µs since the root span started
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	out := make(map[string]any, len(attrs))
	for _, a := range attrs {
		out[a.Key] = a.Value()
	}
	return out
}

// WriteJSONL writes the span tree rooted at root as JSON lines, one
// span per line in depth-first order. Timestamps are microseconds
// relative to the root start, so traces are position-independent.
func WriteJSONL(w io.Writer, root *Span) error {
	if root == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	base := root.Start()
	id := 0
	var walk func(s *Span, parent int) error
	walk = func(s *Span, parent int) error {
		js := jsonlSpan{
			ID:      id,
			Parent:  parent,
			Name:    s.Name(),
			StartUS: s.Start().Sub(base).Microseconds(),
			DurUS:   s.Duration().Microseconds(),
			Attrs:   attrMap(s.Attrs()),
		}
		if parent == -1 {
			js.SpanID = s.ID()
		}
		my := id
		id++
		if err := enc.Encode(js); err != nil {
			return err
		}
		for _, c := range s.Children() {
			if err := walk(c, my); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, -1)
}

// WriteTree renders the span tree as an indented human-readable
// listing (the `.trace on` console surface).
func WriteTree(w io.Writer, root *Span) error {
	if root == nil {
		return nil
	}
	var walk func(s *Span, depth int) error
	walk = func(s *Span, depth int) error {
		var b strings.Builder
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.Name())
		fmt.Fprintf(&b, " (%s)", formatDur(s.Duration()))
		for _, a := range s.Attrs() {
			fmt.Fprintf(&b, " %s=%v", a.Key, a.Value())
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
		for _, c := range s.Children() {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, 0)
}

func formatDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return d.String()
	case d < time.Millisecond:
		return d.Round(10 * time.Nanosecond).String()
	case d < time.Second:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}
