package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
)

// TestObserveExpositionRace hammers a histogram with observations,
// registering new series as it goes, while the registry is concurrently
// rendered (Prometheus text) and snapshotted. Run under -race this
// proves series registration and the atomic bucket, count and sum
// updates are published safely to readers.
func TestObserveExpositionRace(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("race_seconds", "Observe race test histogram.")
	bounds := []float64{0.001, 0.01, 0.1, 1}

	const writers, rounds = 4, 500
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			<-start
			// Re-fetch the instrument each round: registration must be
			// race-free too.
			for i := 0; i < rounds; i++ {
				h := reg.Histogram("race_seconds", bounds, "writer", string(rune('a'+seed)))
				h.Observe(float64(i%7) / 100)
			}
		}(uint64(w))
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds; i++ {
			_ = reg.Snapshot()
		}
	}()
	close(start)
	wg.Wait()

	// The final exposition must still be well-formed.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("final WritePrometheus: %v", err)
	}
	if err := validatePrometheus(sb.String()); err != nil {
		t.Fatalf("exposition does not parse after concurrent observations: %v", err)
	}
}
