package fault

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisabledIsZeroCost(t *testing.T) {
	Reset()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := Inject(SiteRequest); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled failpoint pass allocates %.1f objects, want 0", allocs)
	}
}

func TestUnknownSiteRejected(t *testing.T) {
	if err := Enable("server/reqest", Outcome{Err: ErrInjected}, Policy{}); err == nil {
		t.Fatal("misspelled site must be rejected")
	}
}

func TestErrorInjectionAndHits(t *testing.T) {
	t.Cleanup(Reset)
	if err := Enable(SiteTenantOpen, Outcome{Err: ErrInjected}, Policy{Times: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := Inject(SiteTenantOpen); !errors.Is(err, ErrInjected) {
			t.Fatalf("pass %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := Inject(SiteTenantOpen); err != nil {
		t.Fatalf("pass past Times injected %v", err)
	}
	if got := Hits(SiteTenantOpen); got != 3 {
		t.Fatalf("Hits = %d, want 3", got)
	}
	Reset()
	if err := Inject(SiteTenantOpen); err != nil || Hits(SiteTenantOpen) != 0 {
		t.Fatalf("disarmed site injected %v", err)
	}
}

func TestBareErrorsWrapped(t *testing.T) {
	t.Cleanup(Reset)
	cause := errors.New("disk on fire")
	if err := Enable(SitePreparedBind, Outcome{Err: cause}, Policy{}); err != nil {
		t.Fatal(err)
	}
	err := Inject(SitePreparedBind)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want both ErrInjected and the cause", err)
	}
}

func TestLatencyOnlyOutcomeProceeds(t *testing.T) {
	t.Cleanup(Reset)
	if err := Enable(SiteRequest, Outcome{Delay: 10 * time.Millisecond}, Policy{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Inject(SiteRequest); err != nil {
		t.Fatalf("latency-only outcome returned %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("site returned after %v, want >= 10ms", d)
	}
}

func TestConcurrentPassesAreRaceFree(t *testing.T) {
	t.Cleanup(Reset)
	if err := Enable(SiteRequest, Outcome{Err: ErrInjected}, Policy{Times: 400}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	hits := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if Inject(SiteRequest) != nil {
					mu.Lock()
					hits++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if got := Hits(SiteRequest); got != hits {
		t.Fatalf("Hits = %d, callers observed %d", got, hits)
	}
	if hits != 400 {
		t.Fatalf("a 400-times policy fired %d/800 passes, want 400", hits)
	}
}

// TestActiveAndCatalog: the catalog is the three server sites, and each
// is active — it fires — once enabled.
func TestActiveAndCatalog(t *testing.T) {
	t.Cleanup(Reset)
	cat := Catalog()
	if len(cat) != 3 {
		t.Fatalf("catalog lists %v, want the three server sites", cat)
	}
	for _, site := range cat {
		if err := Enable(site, Outcome{Err: ErrInjected}, Policy{}); err != nil {
			t.Fatalf("catalog site %s not enableable: %v", site, err)
		}
		if err := Inject(site); !errors.Is(err, ErrInjected) {
			t.Fatalf("enabled site %s injected %v", site, err)
		}
	}
}

func BenchmarkInjectDisabled(b *testing.B) {
	Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Inject(SiteRequest) != nil {
			b.Fatal("disabled site fired")
		}
	}
}
