package storage

import (
	"sync/atomic"
	"time"
)

// Observer receives storage-layer timing events: WAL appends and
// fsyncs, and snapshot writes. It is defined here (not in the obs
// package) so storage has no observability dependency; obs.StorageMetrics
// satisfies it structurally. Implementations must be safe for
// concurrent use.
type Observer interface {
	// ObserveWALAppend reports one durable WAL append — a record, or a
	// batch acknowledged as a unit: the full write+flush+fsync latency
	// and the framed size of everything appended.
	ObserveWALAppend(d time.Duration, bytes int)
	// ObserveWALSync reports one WAL fsync.
	ObserveWALSync(d time.Duration)
	// ObserveSnapshot reports one completed snapshot write: total
	// latency (including rename and directory sync) and snapshot size.
	ObserveSnapshot(d time.Duration, bytes int64)
}

// obsBox wraps the Observer interface in a concrete type so it can
// live in an atomic.Pointer.
type obsBox struct{ o Observer }

// observerHolder is an atomically swappable Observer slot shared by a
// Store and its WAL.
type observerHolder struct{ p atomic.Pointer[obsBox] }

// get returns the current Observer, or nil. It runs on every WAL
// append, so it must stay a bare atomic load.
func (h *observerHolder) get() Observer {
	if h == nil {
		return nil
	}
	if b := h.p.Load(); b != nil {
		return b.o
	}
	return nil
}

func (h *observerHolder) set(o Observer) {
	if o == nil {
		h.p.Store(nil)
		return
	}
	h.p.Store(&obsBox{o: o})
}

// SetObserver attaches (or, with nil, detaches) a storage Observer.
// Events from then on — WAL appends/fsyncs and snapshot writes — are
// reported to it.
func (s *Store) SetObserver(o Observer) { s.obs.set(o) }
