package obs

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// The per-op instruments allocate nothing: a trace's phases are copied
// into the ring's inline slots, and a histogram observe is atomics only.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tr := NewTracer(64, 1)
	buf := tr.Buffer()
	h := newHistogram(LatencyBuckets)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Tracer.Record/2 phases", func() {
			ph := [...]PhaseNS{{Name: "read", Dur: 3}, {Name: "ack", Start: 3, Dur: 1}}
			tr.Record(OpTrace{Name: "GET", Key: 1, Start: 10, Dur: 4}, ph[:]...)
		}},
		{"Tracer.Record/5 phases", func() {
			ph := [...]PhaseNS{{Name: "queue", Dur: 1}, {Name: "journal", Dur: 1}, {Name: "fence", Dur: 1},
				{Name: "apply", Dur: 1}, {Name: "ack", Dur: 1}}
			tr.Record(OpTrace{Name: "SET", Key: 1, Start: 10, Dur: 5}, ph[:]...)
		}},
		{"TraceBuffer.Record/5 phases", func() {
			ph := [...]PhaseNS{{Name: "queue", Dur: 1}, {Name: "journal", Dur: 1}, {Name: "fence", Dur: 1},
				{Name: "apply", Dur: 1}, {Name: "ack", Dur: 1}}
			buf.Record(OpTrace{Name: "SET", Key: 1, Start: 10, Dur: 5}, ph[:]...)
		}},
		{"Histogram.Observe", func() { h.Observe(3e-6) }},
	} {
		if n := testing.AllocsPerRun(1000, c.fn); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, n)
		}
	}
}

// The ring keeps each trace on cache lines of its own, and each lock word
// on a line of its own: writers of neighbouring slots must not share a
// line.
func TestTraceRingLayout(t *testing.T) {
	if n := unsafe.Sizeof(traceRec{}); n%64 != 0 {
		t.Fatalf("traceRec is %d bytes, not a whole number of 64-byte lines", n)
	}
	if n := unsafe.Sizeof(slotLock{}); n != 64 {
		t.Fatalf("slotLock is %d bytes, want one 64-byte line", n)
	}
}

// TestHistogramConcurrent requires exact totals after concurrent
// observers: each shard's counts and sum add up to what was observed. The
// samples are small integers, so every float sum is exact.
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	const workers, per = 16, 5000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(1 + (g+i)%5)) // 1, 2, 3, 4, 5 in turn
			}
		}(g)
	}
	wg.Wait()
	const n = workers * per
	if got := h.Count(); got != n {
		t.Fatalf("Count = %d, want %d", got, n)
	}
	if got := h.Sum(); got != 3*n {
		t.Fatalf("Sum = %v, want %d", got, 3*n)
	}
	// Buckets le=1 (the 1s), le=2 (the 2s), le=4 (3s and 4s), +Inf (5s).
	want := []uint64{n / 5, n / 5, 2 * n / 5, n / 5}
	for i, w := range want {
		if got := h.bucket(i); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

// TestFormatSlowlogLinear bounds what SLOWLOG's largest reply costs to
// render: 4,096 five-phase traces may allocate at most four times the
// reply's size (repeated string concatenation allocated about a
// gigabyte for this half-megabyte reply).
func TestFormatSlowlogLinear(t *testing.T) {
	traces := make([]OpTrace, 4096)
	for i := range traces {
		traces[i] = OpTrace{ID: uint64(i + 1), Name: "SET", Key: 1<<63 + uint64(i), Shard: 3,
			Start: NowNS(), Dur: 123456789,
			Phases: []PhaseNS{{Name: "queue", Dur: 1e6}, {Name: "journal", Dur: 2e6},
				{Name: "fence", Dur: 3e6}, {Name: "apply", Dur: 4e6}, {Name: "ack", Dur: 5e6}}}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := FormatSlowlog(traces)
	runtime.ReadMemStats(&after)
	if got := strings.Count(out, "\n"); got != len(traces)+1 {
		t.Fatalf("reply has %d lines, want %d", got, len(traces)+1)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(out)) {
		t.Fatalf("rendering a %d-byte reply allocated %d bytes (over 4x)", len(out), alloc)
	}
}

// BenchmarkTracerRecordParallel is the traced hot path's ring insert
// from every P at once: one cursor add and one slot lock word per trace.
func BenchmarkTracerRecordParallel(b *testing.B) {
	tr := NewTracer(4096, 1)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ph := [...]PhaseNS{{Name: "queue", Dur: 1}, {Name: "journal", Dur: 1}, {Name: "fence", Dur: 1},
				{Name: "apply", Dur: 1}, {Name: "ack", Dur: 1}}
			tr.Record(OpTrace{Name: "SET", Start: 1, Dur: 5}, ph[:]...)
		}
	})
}

// BenchmarkTraceBufferParallel is the serving layer's path: each P
// stages its traces and publishes them 32 at a time.
func BenchmarkTraceBufferParallel(b *testing.B) {
	tr := NewTracer(4096, 1)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		buf := tr.Buffer()
		defer buf.Flush()
		for pb.Next() {
			ph := [...]PhaseNS{{Name: "queue", Dur: 1}, {Name: "journal", Dur: 1}, {Name: "fence", Dur: 1},
				{Name: "apply", Dur: 1}, {Name: "ack", Dur: 1}}
			buf.Record(OpTrace{Name: "SET", Start: 1, Dur: 5}, ph[:]...)
		}
	})
}

// BenchmarkHistogramObserveParallel is one latency observe from every P
// at once, each landing on its goroutine's shard.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := newHistogram(LatencyBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(3e-6)
		}
	})
}
