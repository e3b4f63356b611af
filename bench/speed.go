package main

// A speed reference for a sandbox whose CPUs slow down and speed up by
// tens of percent over seconds to minutes, with nothing in /proc/stat to
// show for it. A fixed kernel shaped like kdb's inner loops runs between
// ops; every timing is divided by how slow the kernel was at that
// moment, relative to refNominalNS. Reported times are therefore "ms at
// the reference speed": host interference cancels, while a change in kdb
// moves the op and not the kernel, so it shows in full.

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// refNominalNS is the kernel's time at the speed every timing is
	// normalized to: its usual time on the two-vCPU sandbox the baseline
	// was taken on, in that machine's faster state. Changing it rescales
	// every timing metric.
	refNominalNS = 150_000
	// refEvery is the longest the loop goes without a kernel sample.
	refEvery = 10 * time.Millisecond
	// refSmooth is half the width of the neighbourhood whose median
	// kernel time stands for the speed at an instant.
	refSmooth  = 250 * time.Millisecond
	refPasses  = 2
	refKeyings = 2000
	refSlots   = 4096 // a power of two above refKeyings
	refStride  = 32   // bytes of the key block per key
)

// refSlot is one entry of the kernel's tables: which key it holds
// (index+1, 0 for empty) and a count. No pointers: see kernel.
type refSlot struct {
	key   int32
	count int32
}

// speedClock is one goroutine's kernel and its record of samples.
type speedClock struct {
	t0 time.Time
	at []time.Duration // when each sample ended, since t0
	ns []float64       // how long it took

	keys  []byte    // the keys' bytes, refStride apart, '.'-padded
	table []refSlot // open addressing, linear probing
}

func newSpeedClock() *speedClock {
	s := &speedClock{
		t0:    time.Now(),
		keys:  make([]byte, 0, refKeyings*refStride),
		table: make([]refSlot, refSlots),
	}
	for i := 0; i < refKeyings; i++ {
		k := "k" + strconv.Itoa(i*7919)
		s.keys = append(append(s.keys, k...), strings.Repeat(".", refStride-len(k))...)
	}
	return s
}

// kernel counts byte-string keys in a hash table: hashing, comparison
// and probing in about the mix of kdb's join loop and relation indexes,
// over a hundred kilobytes. In traces that interleaved candidate kernels
// with the closure workload while the sandbox slowed down and sped up,
// pure arithmetic slowed far less than the workload, and tables of a
// quarter megabyte and more slowed more and, worse, ran at the mercy of
// whatever the op before had left in the cache. This one slows somewhat
// less than the workloads do (about 1.3x where closure slows 1.5x), so
// what it divides out is most of the interference, not all of it.
//
// The kernel's time must depend on the machine and on nothing the
// workload does, so it allocates nothing and its memory holds no
// pointers. An earlier version stored Go strings in the table: whenever
// a sample fell into a GC mark phase started by the workload's
// allocations every store paid the write barrier, and the kernel ran up
// to a fifth slower on some seeds than on others. A Go map was out for a
// similar reason: its hash seed differs per process.
func (s *speedClock) kernel() {
	for p := uint32(0); p < refPasses; p++ {
		clear(s.table)
		for i := 0; i < refKeyings; i++ {
			k := s.keys[i*refStride : (i+1)*refStride]
			h := uint32(2166136261) + p
			for _, b := range k {
				h = (h ^ uint32(b)) * 16777619
			}
			slot := h & (refSlots - 1)
			for {
				held := s.table[slot].key
				if held == 0 || bytes.Equal(s.keys[(held-1)*refStride:held*refStride], k) {
					break
				}
				slot = (slot + 1) & (refSlots - 1)
			}
			s.table[slot].key = int32(i + 1)
			s.table[slot].count += int32(i)
		}
	}
}

// sample runs the kernel once and records it.
func (s *speedClock) sample() {
	start := time.Now()
	s.kernel()
	end := time.Now()
	s.at = append(s.at, end.Sub(s.t0))
	s.ns = append(s.ns, float64(end.Sub(start)))
}

// due reports whether the last sample is older than refEvery.
func (s *speedClock) due(now time.Time) bool {
	return len(s.at) == 0 || now.Sub(s.t0)-s.at[len(s.at)-1] >= refEvery
}

// slowdown is the kernel's median time within refSmooth of the instant,
// over refNominalNS: 1.25 means the machine ran a quarter slower than
// the reference speed around then.
func (s *speedClock) slowdown(at time.Time) float64 {
	t := at.Sub(s.t0)
	lo := sort.Search(len(s.at), func(i int) bool { return s.at[i] >= t-refSmooth })
	hi := sort.Search(len(s.at), func(i int) bool { return s.at[i] > t+refSmooth })
	if hi-lo < 3 { // too few neighbours: widen to the nearest samples
		lo, hi = max(0, lo-2), min(len(s.at), hi+2)
	}
	if hi <= lo {
		return 1
	}
	return median(s.ns[lo:hi]) / refNominalNS
}
