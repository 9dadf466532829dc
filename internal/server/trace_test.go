package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
)

// slowlogEntry is one parsed SLOWLOG line.
type slowlogEntry struct {
	op      string
	totalUs float64
	phases  map[string]float64
}

// parseSlowlog parses FormatSlowlog output: a "slowlog_entries: n" header
// followed by one "#i op=... key=... shard=... total_us=... <phase>_us=...
// age_s=..." line per trace.
func parseSlowlog(t *testing.T, text string) []slowlogEntry {
	t.Helper()
	if rest, ok := strings.CutPrefix(text, "$"); ok {
		if _, body, found := strings.Cut(rest, "\n"); found {
			text = body
		}
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "slowlog_entries: ") {
		t.Fatalf("slowlog missing header:\n%s", text)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(lines[0], "slowlog_entries: "))
	if err != nil || n != len(lines)-1 {
		t.Fatalf("slowlog_entries = %q but %d entry lines follow", lines[0], len(lines)-1)
	}
	var out []slowlogEntry
	for _, line := range lines[1:] {
		e := slowlogEntry{phases: make(map[string]float64)}
		for _, tok := range strings.Fields(line)[1:] { // skip "#i"
			key, val, ok := strings.Cut(tok, "=")
			if !ok {
				t.Fatalf("malformed slowlog token %q in %q", tok, line)
			}
			switch {
			case key == "op":
				e.op = val
			case key == "total_us":
				if e.totalUs, err = strconv.ParseFloat(val, 64); err != nil {
					t.Fatalf("bad total_us %q in %q", val, line)
				}
			case strings.HasSuffix(key, "_us"):
				us, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("bad %s %q in %q", key, val, line)
				}
				e.phases[strings.TrimSuffix(key, "_us")] = us
			}
		}
		if e.op == "" || e.totalUs == 0 && len(e.phases) == 0 {
			t.Fatalf("slowlog line parsed empty: %q", line)
		}
		out = append(out, e)
	}
	return out
}

// TestSlowlogPhaseSums is the decomposition contract as an automated
// check: on a loaded server tracing every op, each traced mutation's
// queue/journal/fence/apply/ack phases must sum to within 10% of its
// end-to-end latency, and the STATS phase means must likewise tile the
// mutation mean. The phases are constructed to tile exactly; the slack
// only absorbs the %.1f rendering.
func TestSlowlogPhaseSums(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 32 << 20, Journals: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, addr := startServer(t, p, server.Options{MaxBatch: 8, Buckets: 64})
	defer srv.Close()

	const clients, perClient = 4, 100
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := dial(t, addr)
			defer cl.close()
			for i := 0; i < perClient; i++ {
				key := uint64(id)<<32 | uint64(i)
				if _, err := cl.cmd(fmt.Sprintf("SET %d %d", key, key+1)); err != nil {
					t.Errorf("client %d: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()

	cl := dial(t, addr)
	defer cl.close()
	entries := parseSlowlog(t, mustCmd(t, cl, "SLOWLOG 64"))
	if len(entries) == 0 {
		t.Fatal("SLOWLOG empty after 400 traced SETs")
	}
	mutations := 0
	for _, e := range entries {
		if e.op != "SET" && e.op != "DEL" {
			continue
		}
		mutations++
		var sum float64
		for _, ph := range []string{"queue", "journal", "fence", "apply", "ack"} {
			us, ok := e.phases[ph]
			if !ok {
				t.Fatalf("slowlog %s entry missing phase %q: %+v", e.op, ph, e)
			}
			sum += us
		}
		tol := 0.10*e.totalUs + 0.5 // 10% + the %.1f rounding of six fields
		if math.Abs(sum-e.totalUs) > tol {
			t.Errorf("%s phases sum to %.1fµs, total %.1fµs (off by more than %.1fµs)",
				e.op, sum, e.totalUs, tol)
		}
	}
	if mutations == 0 {
		t.Fatal("SLOWLOG has no mutation entries")
	}

	stats := parseKV(t, mustCmd(t, cl, "STATS"))
	ops, err := strconv.ParseUint(stats["lat_mutation_ops"], 10, 64)
	if err != nil || ops < clients*perClient {
		t.Errorf("lat_mutation_ops = %q, want >= %d", stats["lat_mutation_ops"], clients*perClient)
	}
	for _, k := range []string{
		"lat_mutation_mean_us", "lat_mutation_p50_us", "lat_mutation_p99_us", "lat_mutation_p999_us",
		"lat_read_mean_us", "lat_read_p50_us", "lat_read_p99_us",
	} {
		if _, err := strconv.ParseFloat(stats[k], 64); err != nil {
			t.Errorf("STATS %s = %q is not a float", k, stats[k])
		}
	}
	mean, _ := strconv.ParseFloat(stats["lat_mutation_mean_us"], 64)
	var phaseSum float64
	for _, ph := range []string{"queue", "journal", "fence", "apply", "ack"} {
		k := "phase_" + ph + "_mean_us"
		v, err := strconv.ParseFloat(stats[k], 64)
		if err != nil {
			t.Fatalf("STATS %s = %q is not a float", k, stats[k])
		}
		phaseSum += v
	}
	if mean <= 0 {
		t.Fatalf("lat_mutation_mean_us = %v after load", mean)
	}
	if math.Abs(phaseSum-mean) > 0.10*mean+0.5 {
		t.Errorf("STATS phase means sum to %.1fµs, mutation mean %.1fµs (>10%% apart)", phaseSum, mean)
	}
}

// TestTraceEndpoint checks /debug/trace serves valid Chrome trace-event
// JSON for recent ops and rejects malformed ?n=.
func TestTraceEndpoint(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 32 << 20, Journals: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, addr := startServer(t, p, server.Options{MaxBatch: 8, Buckets: 64})
	defer srv.Close()

	cl := dial(t, addr)
	defer cl.close()
	for i := 0; i < 32; i++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", i, i+1), "+OK")
	}
	mustReply(t, cl, "GET 1", ":2")

	rec := httptest.NewRecorder()
	srv.DebugMux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace?n=50", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/trace = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	body, _ := io.ReadAll(rec.Body)
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v\n%s", err, body)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/debug/trace has no events after traced traffic")
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has ph=%q, want complete events", ev.Name, ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"SET", "journal", "fence"} {
		if !names[want] {
			t.Errorf("/debug/trace missing %q events (have %v)", want, names)
		}
	}

	rec = httptest.NewRecorder()
	srv.DebugMux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace?n=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("GET /debug/trace?n=bogus = %d, want 400", rec.Code)
	}
}

// TestRecoveryTimelineSharded is satellite coverage for the recovery
// timeline: after a machine-wide power cut, a sharded restart must report
// per-phase recovery seconds in INFO (aggregate and per shard, phases
// summing to the total) and shard-labeled pool_recovery_seconds gauges.
func TestRecoveryTimelineSharded(t *testing.T) {
	const n = 4
	pools := newShardPools(t, n, 16<<20)
	srv, addr := startShardedServer(t, pools, server.Options{MaxBatch: 8, Buckets: 64})

	cl := dial(t, addr)
	for i := uint64(0); i < 128; i++ {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", i, i+1), "+OK")
	}
	cl.close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	devs := make([]*pmem.Device, n)
	for i, p := range pools {
		devs[i] = p.Device()
		devs[i].Crash()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	recovered, errs := server.AttachShards(devs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d failed recovery: %v", i, err)
		}
	}
	defer closeShardPools(recovered)
	srv2, addr2 := startShardedServer(t, recovered, server.Options{MaxBatch: 8, Buckets: 64})
	defer srv2.Close()

	cl2 := dial(t, addr2)
	defer cl2.close()
	info := parseKV(t, mustCmd(t, cl2, "INFO"))
	total, err := strconv.ParseFloat(info["recovery_seconds_total"], 64)
	if err != nil || total <= 0 {
		t.Fatalf("INFO recovery_seconds_total = %q, want > 0", info["recovery_seconds_total"])
	}
	var phaseSum float64
	for _, ph := range []string{"fsck", "heap_open", "journal_replay", "claim_resolution", "publish"} {
		k := "recovery_seconds_" + ph
		v, ok := info[k]
		if !ok {
			t.Errorf("INFO missing key %q", k)
			continue
		}
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil || secs < 0 {
			t.Errorf("INFO %s = %q, want non-negative float", k, v)
		}
		phaseSum += secs
	}
	if math.Abs(phaseSum-total) > 1e-3 {
		t.Errorf("recovery phases sum to %.6fs, recovery_seconds_total = %.6fs", phaseSum, total)
	}
	var shardSum float64
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("shard%d_recovery_seconds_total", i)
		v, ok := info[k]
		if !ok {
			t.Fatalf("INFO missing per-shard key %q", k)
		}
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("INFO %s = %q is not a float", k, v)
		}
		shardSum += secs
	}
	if math.Abs(shardSum-total) > 1e-3 {
		t.Errorf("per-shard recovery totals sum to %.6fs, aggregate = %.6fs", shardSum, total)
	}

	var sb strings.Builder
	if err := srv2.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	gauges := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "pool_recovery_seconds{") {
			if !strings.Contains(line, `phase="`) || !strings.Contains(line, `shard="`) {
				t.Errorf("pool_recovery_seconds sample missing phase/shard labels: %q", line)
			}
			gauges++
		}
	}
	// Every shard replayed its journal, so at minimum the journal-replay
	// phase gauge exists per shard.
	if gauges < n {
		t.Errorf("found %d pool_recovery_seconds samples, want >= %d:\n%s", gauges, n, text)
	}
	for _, want := range []string{`phase="journal-replay"`, `shard="0"`, fmt.Sprintf(`shard="%d"`, n-1)} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics pool_recovery_seconds missing %s", want)
		}
	}
}

// TestTraceHammer slams a traced sharded server from many connections
// while the sampling knob is flipped and snapshots are taken concurrently
// — the data-race regression test for the tracing hot path (run under
// -race in CI).
func TestTraceHammer(t *testing.T) {
	pools := newShardPools(t, 2, 16<<20)
	defer closeShardPools(pools)
	srv, addr := startShardedServer(t, pools, server.Options{MaxBatch: 16, Buckets: 64, TraceRing: 128})
	defer srv.Close()

	done := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		rates := []int{0, 1, 4}
		scl := dial(t, addr)
		defer scl.close()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			srv.Tracer().SetSample(rates[i%len(rates)])
			srv.Tracer().Snapshot()
			if _, err := scl.cmd("STATS"); err != nil { // reads every latency histogram
				t.Errorf("STATS under churn: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const clients, perClient = 8, 150
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := dial(t, addr)
			defer cl.close()
			for i := 0; i < perClient; i++ {
				key := uint64(id)<<32 | uint64(i)
				var cmd string
				switch i % 3 {
				case 0:
					cmd = fmt.Sprintf("SET %d %d", key, key+1)
				case 1:
					cmd = fmt.Sprintf("GET %d", key)
				default:
					cmd = fmt.Sprintf("DEL %d", key)
				}
				if _, err := cl.cmd(cmd); err != nil {
					t.Errorf("client %d: %s: %v", id, cmd, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(done)
	churn.Wait()

	srv.Tracer().SetSample(1)
	cl := dial(t, addr)
	defer cl.close()
	parseSlowlog(t, mustCmd(t, cl, "SLOWLOG 32")) // still parses after the churn
	if srv.Halted() {
		t.Fatal("server halted under trace hammer")
	}
}
