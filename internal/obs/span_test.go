package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(64, 0)
	if tr.Sampled() {
		t.Fatal("sample=0 must never sample")
	}
	tr.SetSample(1)
	for i := 0; i < 10; i++ {
		if !tr.Sampled() {
			t.Fatal("sample=1 must always sample")
		}
	}
	tr.SetSample(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if tr.Sampled() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("sample=4 over 400 ops: got %d hits, want 100", hits)
	}
	if tr.SampleRate() != 4 {
		t.Fatalf("SampleRate = %d, want 4", tr.SampleRate())
	}
}

// ringShards is the retention slack TestTracerRingBounded grants over the
// requested capacity. The old ring kept capacity/8 per shard across 8
// mutex shards and could hold up to 8 more; the slot ring keeps exactly
// its (power-of-two) capacity, so the slack is now zero.
const ringShards = 0

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(32, 1)
	for i := 0; i < 1000; i++ {
		tr.Record(OpTrace{Name: "SET", Start: int64(i), Dur: int64(i % 7)})
	}
	got := tr.Snapshot()
	if len(got) == 0 || len(got) > 32+ringShards {
		t.Fatalf("snapshot size %d, want bounded near 32", len(got))
	}
	// Retained traces must be the most recent ones.
	for _, x := range got {
		if x.Start < 1000-int64(len(got))-ringShards {
			t.Fatalf("retained a stale trace: start=%d", x.Start)
		}
	}
	slow := tr.Slowest(5)
	if len(slow) != 5 {
		t.Fatalf("Slowest(5) returned %d", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Dur > slow[i-1].Dur {
			t.Fatalf("Slowest not sorted: %d after %d", slow[i].Dur, slow[i-1].Dur)
		}
	}
	rec := tr.Recent(3)
	if len(rec) != 3 {
		t.Fatalf("Recent(3) returned %d", len(rec))
	}
	for i := 1; i < len(rec); i++ {
		if rec[i].ID < rec[i-1].ID {
			t.Fatal("Recent not in ID order")
		}
	}
}

// TestTracerConcurrentRecord records from many goroutines into a ring
// far smaller than the traffic, so writers lap each other constantly,
// while readers snapshot it. Half the writers record one trace at a
// time, half stage runs in a TraceBuffer. Every field and phase of a
// trace derives from one value, so a torn copy — fields of two traces in
// one record — shows as a mismatch.
func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(16, 1)
	names := []string{"SET", "GET", "DEL"}
	phaseNames := []string{"queue", "journal", "fence", "apply", "ack"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			record := tr.Record
			if g%2 == 1 {
				buf := tr.Buffer()
				defer buf.Flush()
				record = buf.Record
			}
			for i := 0; i < 500; i++ {
				v := int64(g*1000 + i + 1)
				if tr.Sampled() {
					var ph [5]PhaseNS
					n := 1 + int(v%5)
					for k := 0; k < n; k++ {
						ph[k] = PhaseNS{Name: phaseNames[k], Start: int64(k) * v, Dur: v}
					}
					record(OpTrace{Name: names[v%3], Shard: int(v % 7), Key: uint64(v), Start: v, Dur: v * int64(n)}, ph[:n]...)
				}
				if i%50 == 0 {
					tr.Snapshot()
					tr.SetSample(1 + i%3)
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, x := range tr.Snapshot() {
					v := x.Start
					ok := x.Name == names[v%3] && x.Shard == int(v%7) && x.Key == uint64(v) &&
						len(x.Phases) == 1+int(v%5) && x.Dur == v*int64(len(x.Phases))
					for k, p := range x.Phases {
						ok = ok && p.Name == phaseNames[k] && p.Start == int64(k)*v && p.Dur == v
					}
					if !ok {
						t.Errorf("torn trace read back: %+v", x)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if len(tr.Snapshot()) == 0 {
		t.Fatal("no traces retained")
	}
}

func TestOpTraceSum(t *testing.T) {
	tr := OpTrace{Phases: []PhaseNS{{Dur: 100}, {Dur: 250}, {Dur: 7}}}
	if tr.Sum() != 357 {
		t.Fatalf("Sum = %d, want 357", tr.Sum())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	traces := []OpTrace{
		{ID: 1, Name: "SET", Shard: 0, Key: 42, Start: 1000, Dur: 5000,
			Phases: []PhaseNS{{Name: "queue", Start: 0, Dur: 2000}, {Name: "journal", Start: 2000, Dur: 3000}}},
		{ID: 2, Name: "GET", Shard: -1, Start: 2000, Dur: 800},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 { // 2 ops + 2 phases
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Name != "SET" || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Dur != 5.0 {
		t.Fatalf("bad op event: %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1].Name != "queue" || doc.TraceEvents[1].Ts != 1.0 {
		t.Fatalf("bad phase event: %+v", doc.TraceEvents[1])
	}
	if doc.TraceEvents[3].Pid != 0 {
		t.Fatalf("shard -1 must map to pid 0, got %d", doc.TraceEvents[3].Pid)
	}
}

func TestFormatSlowlog(t *testing.T) {
	out := FormatSlowlog([]OpTrace{
		{Name: "SET", Key: 9, Shard: 1, Start: NowNS() - 10000, Dur: 4500,
			Phases: []PhaseNS{{Name: "queue", Dur: 1500}, {Name: "fence", Dur: 3000}}},
	})
	for _, want := range []string{"slowlog_entries: 1", "op=SET", "key=9", "shard=1", "total_us=4.5", "queue_us=1.5", "fence_us=3.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("slowlog output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 40})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", q)
	}
	// 10 samples in (0,10], 10 in (10,20]: median sits at the 10/20 edge.
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	if q := h.Quantile(0.5); math.Abs(q-10) > 1e-9 {
		t.Fatalf("Quantile(0.5) = %v, want 10", q)
	}
	if q := h.Quantile(0.25); math.Abs(q-5) > 1e-9 {
		t.Fatalf("Quantile(0.25) = %v, want 5", q)
	}
	if q := h.Quantile(1); math.Abs(q-20) > 1e-9 {
		t.Fatalf("Quantile(1) = %v, want 20", q)
	}
	// Clamping.
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("Quantile must clamp q to [0,1]")
	}
	// Samples past the last bound land in +Inf; the estimate floors at
	// the highest finite bound.
	h.Observe(1e9)
	if q := h.Quantile(0.999); q != 40 {
		t.Fatalf("Quantile(0.999) with +Inf tail = %v, want 40", q)
	}
	if m := h.Mean(); math.Abs(m-(10*5+10*15+1e9)/21) > 1e-6 {
		t.Fatalf("Mean = %v", m)
	}
}

func TestHistogramExplicitInfBound(t *testing.T) {
	h := newHistogram([]float64{1, math.Inf(1)})
	h.Observe(0.5)
	h.Observe(99)
	var buf bytes.Buffer
	h.writeTo(&buf, "x_seconds", "")
	out := buf.String()
	if n := strings.Count(out, `le="+Inf"`); n != 1 {
		t.Fatalf("want exactly one +Inf bucket line, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, `x_seconds_bucket{le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket must be cumulative:\n%s", out)
	}
}

// BenchmarkTracerSampledOff measures the per-op cost of the tracing gate
// when sampling is disabled — the "tracing off" tax every un-traced op
// pays. It must stay at a single atomic load (sub-nanosecond on any
// modern core).
func BenchmarkTracerSampledOff(b *testing.B) {
	tr := NewTracer(1024, 0)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if tr.Sampled() {
				b.Fatal("sampled with sampling off")
			}
		}
	})
}

func TestHistogramQuantileEmptyBucketBoundary(t *testing.T) {
	h := newHistogram([]float64{10, 20, 40})
	// All mass above the first bucket: rank 0 (q=0) lands exactly on the
	// empty first bucket's boundary. The estimate must be the previous
	// finite bound (0 here — nothing sits below), not the empty bucket's
	// own upper bound, which would report a quantile for data the bucket
	// never held and inflate boundary-rank p99/p999 readouts.
	for i := 0; i < 10; i++ {
		h.Observe(15)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("Quantile(0) with empty first bucket = %v, want 0 (previous finite bound)", q)
	}
	// A populated first bucket agrees: rank 0 interpolates to the same 0.
	h2 := newHistogram([]float64{10, 20, 40})
	h2.Observe(5)
	if q := h2.Quantile(0); q != 0 {
		t.Fatalf("Quantile(0) with populated first bucket = %v, want 0", q)
	}
	// Interpolation within populated buckets is unaffected by the fix.
	if q := h.Quantile(1); math.Abs(q-20) > 1e-9 {
		t.Fatalf("Quantile(1) = %v, want 20", q)
	}
}
