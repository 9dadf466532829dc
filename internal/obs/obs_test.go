package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter", nil)
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// TestCounterShardHintSpreads pins what the stack-address hint is for:
// goroutines alive at the same time mostly land on different shards.
func TestCounterShardHintSpreads(t *testing.T) {
	const workers = 64
	shards := make([]int, workers)
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < workers; i++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			shards[i] = shardFor()
			ready.Done()
			<-release // stay alive so no stack is reused
		}()
	}
	ready.Wait()
	close(release)
	done.Wait()
	seen := map[int]bool{}
	for _, s := range shards {
		seen[s] = true
	}
	if len(seen) < counterShards/2 {
		t.Fatalf("%d live goroutines landed on %d of %d shards", workers, len(seen), counterShards)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", nil, []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %v, want 556.5", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="1"} 2`,   // 0.5 and 1 (le is inclusive)
		`lat_seconds_bucket{le="10"} 3`,  // + 5
		`lat_seconds_bucket{le="100"} 4`, // + 50
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", "ops", Labels{"op": "get"}).Add(3)
	r.Counter("ops_total", "ops", Labels{"op": "set"}).Add(7)
	r.GaugeFunc("live_gauge", "live", nil, func() float64 { return 42 })
	r.CounterFunc("fn_total", "from fn", Labels{"scope": "journal"}, func() uint64 { return 9 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP ops_total ops",
		"# TYPE ops_total counter",
		`ops_total{op="get"} 3`,
		`ops_total{op="set"} 7`,
		"live_gauge 42",
		`fn_total{scope="journal"} 9`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// One family header, even with two series.
	if strings.Count(out, "# TYPE ops_total counter") != 1 {
		t.Errorf("ops_total family header repeated:\n%s", out)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "", nil)
}

func TestRecorderWraparound(t *testing.T) {
	rec := NewRecorder(16)
	const n = 100
	for i := 1; i <= n; i++ {
		rec.Record(1, 2, uint64(i), 8)
	}
	evs := rec.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if last := evs[len(evs)-1]; last.Seq != n || last.Off != n {
		t.Fatalf("last event %+v, want seq=%d off=%d", last, n, n)
	}
	if got := rec.Last(4); len(got) != 4 || got[3].Seq != n {
		t.Fatalf("Last(4) = %+v", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				rec.Record(1, 0, uint64(i), 0)
				if i%100 == 0 {
					rec.Snapshot() // dumps race with recording by design
				}
			}
		}()
	}
	wg.Wait()
	evs := rec.Snapshot()
	if len(evs) == 0 {
		t.Fatal("no events retained")
	}
	seen := make(map[uint64]bool, len(evs))
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("sequence %d retained twice", e.Seq)
		}
		seen[e.Seq] = true
	}
}
