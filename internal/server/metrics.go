package server

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"corundum/internal/obs"
	"corundum/internal/pmem"
)

// scopeKey renders an attribution scope as a snake_case STATS key
// fragment ("user-data" → "user_data").
func scopeKey(sc pmem.Scope) string { return strings.ReplaceAll(sc.String(), "-", "_") }

// batchSizeBuckets bound the group-commit batch-size histogram; the
// batcher never packs more than MaxBatch (default 64) ops.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// batchSizeLabels name the buckets, +Inf last, in STATS' batch_hist_* keys.
var batchSizeLabels = []string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", ">64"}

// opLatencyBuckets is a ×2 ladder from 500ns to ~4s: finer than
// obs.LatencyBuckets so the interpolated p99/p999 of microsecond-scale
// ops have sub-bucket resolution.
var opLatencyBuckets = func() []float64 {
	out := make([]float64, 0, 24)
	for b := 500e-9; b < 4.5; b *= 2 {
		out = append(out, b)
	}
	return out
}()

// serverMetrics is the registry-backed instrument set: the request
// counters the hot path bumps directly plus live read-outs of state owned
// elsewhere (batcher tallies, pool occupancy, device scope counters —
// the latter two registered by pool.EnableMetrics). A single-shard
// server registers its pool's series unlabeled, exactly as before
// sharding existed; a sharded server stamps shard="i" on each pool's
// series and adds per-shard health gauges.
type serverMetrics struct {
	reg *obs.Registry

	opsGet, opsSet, opsDel, opsScan, opsScrub *obs.Counter

	connsTotal *obs.Counter
	connPanics *obs.Counter
	// readonlyRejects counts mutations refused with -READONLY while a
	// shard serves degraded (or is down); corruptionErrs counts checksum
	// failures the verified read path surfaced to a client (never a
	// silent wrong value); movedRejects counts ops answered -MOVED while
	// their key's range was mid-migration (retryable, never lost).
	readonlyRejects *obs.Counter
	corruptionErrs  *obs.Counter
	movedRejects    *obs.Counter
	batchSizes      *obs.Histogram

	// Read-path accounting (readpath.go): walks served inside a bracket,
	// without the store lock; bracket conflicts that retried; and walks
	// that ran under the read lock instead (spin budget exhausted under
	// write pressure, or an anomaly only the locked walk can judge).
	readsLockFree *obs.Counter
	readRetries   *obs.Counter
	readFallbacks *obs.Counter

	// Per-op latency decomposition (seconds). opSeconds* are end-to-end
	// (request arrival to reply written); the phase histograms split a
	// mutation's lifetime into batch-queue wait, durable journal writes,
	// fence stalls, store apply, and reply serialization.
	opSecondsMut  *obs.Histogram
	opSecondsRead *obs.Histogram
	phaseQueue    *obs.Histogram
	phaseJournal  *obs.Histogram
	phaseFence    *obs.Histogram
	phaseApply    *obs.Histogram
	phaseAck      *obs.Histogram
}

// mutationPhases orders the phase histograms for rendering (STATS keys,
// bench columns); the names match the OpTrace phase names.
func (m *serverMetrics) mutationPhases() []struct {
	Name string
	H    *obs.Histogram
} {
	return []struct {
		Name string
		H    *obs.Histogram
	}{
		{"queue", m.phaseQueue},
		{"journal", m.phaseJournal},
		{"fence", m.phaseFence},
		{"apply", m.phaseApply},
		{"ack", m.phaseAck},
	}
}

func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:      reg,
		opsGet:   reg.Counter("server_ops_total", "requests served by operation", obs.Labels{"op": "get"}),
		opsSet:   reg.Counter("server_ops_total", "requests served by operation", obs.Labels{"op": "set"}),
		opsDel:   reg.Counter("server_ops_total", "requests served by operation", obs.Labels{"op": "del"}),
		opsScan:  reg.Counter("server_ops_total", "requests served by operation", obs.Labels{"op": "scan"}),
		opsScrub: reg.Counter("server_ops_total", "requests served by operation", obs.Labels{"op": "scrub"}),
		readonlyRejects: reg.Counter("server_readonly_rejected_total",
			"mutations refused with -READONLY while serving degraded", nil),
		corruptionErrs: reg.Counter("server_corruption_errors_total",
			"media corruption detections surfaced to clients instead of silent wrong values", nil),
		movedRejects: reg.Counter("server_moved_rejected_total",
			"ops answered -MOVED because their key range was mid-migration", nil),
		readsLockFree: reg.Counter("server_reads_lockfree_total",
			"read walks served inside a seqlock bracket, no store lock taken", nil),
		readRetries: reg.Counter("server_read_retries_total",
			"lock-free read bracket conflicts that retried (a commit overlapped the walk)", nil),
		readFallbacks: reg.Counter("server_read_fallback_total",
			"read walks that ran under the shard read lock instead of a bracket", nil),
		connsTotal: reg.Counter("server_connections_total",
			"client connections accepted", nil),
		connPanics: reg.Counter("server_conn_panics_total",
			"connection handler panics isolated (connection dropped, server kept serving)", nil),
		batchSizes: reg.Histogram("server_batch_size",
			"operations folded into one group-commit transaction", nil, batchSizeBuckets),
		opSecondsMut: reg.Histogram("server_op_seconds",
			"end-to-end op latency, request arrival to reply written", obs.Labels{"kind": "mutation"}, opLatencyBuckets),
		opSecondsRead: reg.Histogram("server_op_seconds",
			"end-to-end op latency, request arrival to reply written", obs.Labels{"kind": "read"}, opLatencyBuckets),
		phaseQueue: reg.Histogram("server_op_phase_seconds",
			"mutation latency by phase", obs.Labels{"phase": "queue"}, opLatencyBuckets),
		phaseJournal: reg.Histogram("server_op_phase_seconds",
			"mutation latency by phase", obs.Labels{"phase": "journal"}, opLatencyBuckets),
		phaseFence: reg.Histogram("server_op_phase_seconds",
			"mutation latency by phase", obs.Labels{"phase": "fence"}, opLatencyBuckets),
		phaseApply: reg.Histogram("server_op_phase_seconds",
			"mutation latency by phase", obs.Labels{"phase": "apply"}, opLatencyBuckets),
		phaseAck: reg.Histogram("server_op_phase_seconds",
			"mutation latency by phase", obs.Labels{"phase": "ack"}, opLatencyBuckets),
	}
	reg.CounterFunc("server_batches_total", "group-commit transactions committed", nil,
		func() uint64 { b, _ := s.BatchTotals(); return b })
	reg.CounterFunc("server_batched_ops_total", "mutations committed inside batches", nil,
		func() uint64 { _, ops := s.BatchTotals(); return ops })
	reg.GaugeFunc("server_uptime_seconds", "seconds since the server started", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("server_halted", "1 when every shard failed underneath the server", nil,
		func() float64 {
			if s.halted.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("server_degraded", "1 when any shard serves read-only over a degraded pool or is down", nil,
		func() float64 {
			for _, sh := range s.st().shards {
				if sh.degraded() {
					return 1
				}
			}
			return 0
		})
	reg.GaugeFunc("server_shards", "serving layout shard count", nil,
		func() float64 { return float64(s.st().n) })
	reg.GaugeFunc("server_migration_active", "1 while a RESHARD migration is moving keys", nil,
		func() float64 {
			if s.st().rs != nil {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("server_migration_progress", "fraction of source buckets handed over by the active migration (1 when idle)", nil,
		func() float64 {
			rs := s.st().rs
			if rs == nil {
				return 1
			}
			_, _, frac := rs.Progress()
			return frac
		})
	reg.CounterFunc("server_migration_moved_keys_total", "keys moved to their new shard homes by migrations", nil,
		func() uint64 {
			rs := s.st().rs
			if rs == nil {
				return 0
			}
			moved, _, _ := rs.Progress()
			return moved
		})
	reg.GaugeFunc("server_repl_role", "replication role: 0 standalone, 1 primary, 2 replica", nil,
		func() float64 {
			if s.IsReplica() {
				return 2
			}
			if _, ok := s.ReplPrimaryStatus(); ok {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("server_repl_lag_frames", "replication lag in stream frames (worst replica on a primary; own lag on a replica)", nil,
		func() float64 { return float64(s.ReplLag().Frames) })
	reg.GaugeFunc("server_repl_lag_bytes", "replication lag in retained wire bytes", nil,
		func() float64 { return float64(s.ReplLag().Bytes) })
	reg.GaugeFunc("server_repl_lag_seconds", "age of the oldest unacknowledged frame", nil,
		func() float64 { return s.ReplLag().Seconds })
	initial := s.st().shards
	for _, sh := range initial {
		m.registerShardGauges(sh)
	}
	if len(initial) == 1 && initial[0].pool != nil {
		initial[0].pool.EnableMetrics(reg)
	} else {
		for _, sh := range initial {
			if sh.pool != nil {
				sh.pool.EnableMetricsLabeled(reg, obs.Labels{"shard": strconv.Itoa(sh.id)})
			}
		}
	}
	return m
}

// registerShardGauges adds one shard's health gauges; the registry is
// mutex-guarded, so shards added later (migration targets) register
// safely at runtime.
func (m *serverMetrics) registerShardGauges(sh *shard) {
	lbl := obs.Labels{"shard": strconv.Itoa(sh.id)}
	m.reg.GaugeFunc("server_shard_degraded", "1 when this shard serves read-only (degraded pool) or is down", lbl,
		func() float64 {
			if sh.degraded() {
				return 1
			}
			return 0
		})
	m.reg.GaugeFunc("server_shard_down", "1 when this shard serves nothing for its keyspace slice", lbl,
		func() float64 {
			if sh.down() != nil {
				return 1
			}
			return 0
		})
	m.reg.GaugeFunc("server_store_keys", "live keys in this shard's store (0 on a v1 store served at base geometry)", lbl,
		func() float64 { keys, _ := sh.shape(); return float64(keys) })
	m.reg.GaugeFunc("server_store_buckets", "physical buckets in this shard's store directory", lbl,
		func() float64 { _, buckets := sh.shape(); return float64(buckets) })
}

// Registry exposes the server's metrics registry (tests, embedding).
func (s *Server) Registry() *obs.Registry { return s.m.reg }

// MetricsHandler serves the registry in the Prometheus text exposition
// format.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.m.reg.WritePrometheus(w)
	})
}

// TraceHandler serves the most recent sampled op traces as Chrome
// trace-event JSON — load the response in chrome://tracing or Perfetto
// to see each op's phase timeline. ?n= bounds how many traces (default
// 256, capped at the trace ring size).
func (s *Server) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 256
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteChromeTrace(w, s.tracer.Recent(n))
	})
}

// DebugMux bundles the observability endpoints: GET /metrics, GET
// /debug/trace (Chrome trace-event JSON of recent sampled ops), plus the
// standard pprof handlers under /debug/pprof/. Serve it on a side
// listener (corundum-server's -metrics-addr), never on the data port.
func (s *Server) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.MetricsHandler())
	mux.Handle("/debug/trace", s.TraceHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
