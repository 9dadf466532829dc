package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A run is preload, warm-up, then numWindows consecutive windows on the
// same warmed server. The phase word tells the connections which window
// they are in; phaseStop ends the load.
const (
	phaseWarm  = 0
	numWindows = 3
	phaseStop  = numWindows + 1

	setupReps    = 3               // most set-ups per run; setup_s is their median
	setupBudget  = 3 * time.Second // no further set-up once this much has gone into them
	restartKeys  = 4096            // acknowledged writes re-read after a restart
	kill9Seconds = 1               // acknowledged SETs before the SIGKILL probe
	// kill9Counter keeps the probe's values apart from the run's: a
	// connection would need 2^23 writes in one run to reach it.
	kill9Counter = 1 << 23

	lateLimitUS = 250 // mixed_open is invalid when the generator's median lateness exceeds this
)

// runConfig is what one run of one workload needs.
type runConfig struct {
	root, bin string
	seed      uint64
	warmup    time.Duration
	window    time.Duration // each of the numWindows
	trace     bool          // traced run: per-layer metrics, and the layer suite after the load
	suite     time.Duration // traced run: the layer suite's share of the measured time
}

// conn is one load connection and everything it measured.
type conn struct {
	id    int
	w     *workload
	g     *gen
	wire  *wire
	phase *atomic.Int32
	done  atomic.Int64 // replies received since the load began

	lat  [phaseStop][2]hist // by phase, then class: 0 GET, 1 SET and DEL
	late [phaseStop]hist    // open loop: how long after its tick a burst left

	attempted, failed, busy int64
	notes                   []string // the first few failures, for the log
	buf                     []byte
	reqs                    []request
}

func (c *conn) fail(r request, reply []byte) {
	c.failed++
	if len(c.notes) < 4 {
		c.notes = append(c.notes, fmt.Sprintf("conn %d: %s key index %d (want %d, exact %v) answered %q",
			c.id, [...]string{"GET", "SET", "DEL"}[r.kind], r.idx, r.want, r.exact, reply))
	}
}

// check verifies one reply against the request that caused it.
func (c *conn) check(r request, reply []byte) {
	c.attempted++
	ok := false
	switch {
	case len(reply) == 0:
	case reply[0] == '-':
		if bytes.HasPrefix(reply, []byte("-BUSY")) {
			c.busy++
		}
	case r.kind == opSet:
		ok = string(reply) == "+OK"
	case r.kind == opDel:
		ok = string(reply) == ":1"
	case reply[0] == ':':
		// A GET must decode to its key; where this connection is the key's
		// only writer it must be the very value last written. "$-1" (absent)
		// is always wrong: every key a GET names was preloaded.
		v, err := strconv.ParseUint(string(reply[1:]), 10, 64)
		ok = err == nil && v>>valueShift == r.idx && (!r.exact || v == r.want)
	}
	if !ok {
		c.fail(r, reply)
	}
}

// roundTrip sends reqs in one write and reads their replies. Latency runs
// from t0 — the send, or for the open loop the instant the burst was due —
// to the read that delivered the reply, and is recorded under phase ph
// (ph < 0: not recorded).
func (c *conn) roundTrip(reqs []request, t0 time.Time, ph int) error {
	c.buf = c.buf[:0]
	for _, r := range reqs {
		c.buf = c.w.appendRequest(c.buf, r)
	}
	if t0.IsZero() {
		t0 = time.Now()
	}
	if err := c.wire.send(c.buf); err != nil {
		return err
	}
	for _, r := range reqs {
		reply, err := c.wire.line()
		if err != nil {
			return err
		}
		c.check(r, reply)
		if ph >= 0 {
			class := 0
			if r.kind != opGet {
				class = 1
			}
			c.lat[ph][class].record(int64(c.wire.stamp.Sub(t0)))
		}
	}
	return nil
}

// each sends reqs in bursts of depth, unrecorded.
func (c *conn) each(reqs []request, depth int) error {
	for len(reqs) > 0 {
		n := min(depth, len(reqs))
		if err := c.roundTrip(reqs[:n], time.Time{}, -1); err != nil {
			return err
		}
		reqs = reqs[n:]
	}
	return nil
}

// preload writes this connection's half of the key set with counter 0.
func (c *conn) preload() error {
	reqs := make([]request, 0, c.w.keys/numConns)
	for idx := uint64(c.id); idx < uint64(c.w.keys); idx += numConns {
		reqs = append(reqs, request{kind: opSet, idx: idx, want: value(idx, 0), exact: true})
	}
	return c.each(reqs, preloadDepth)
}

// closedLoop sends a burst, reads its replies, repeats.
func (c *conn) closedLoop() error {
	for {
		ph := int(c.phase.Load())
		if ph == phaseStop {
			return nil
		}
		c.reqs = c.reqs[:0]
		for i := 0; i < closedDepth; i++ {
			c.reqs = append(c.reqs, c.g.next())
		}
		if err := c.roundTrip(c.reqs, time.Time{}, ph); err != nil {
			return err
		}
		c.done.Add(closedDepth)
	}
}

// openLoop issues a burst at every tick of a fixed schedule, whatever the
// server does. A burst that cannot leave on time is still timed from its
// tick, so a stall charges every request behind it.
func (c *conn) openLoop(first time.Time) error {
	for k := 0; ; k++ {
		due := first.Add(time.Duration(k) * openPeriodNS)
		for {
			d := time.Until(due)
			if d <= 0 {
				break
			}
			if d > openSpinNS {
				time.Sleep(d - openSpinNS)
			} else {
				runtime.Gosched()
			}
		}
		ph := int(c.phase.Load())
		if ph == phaseStop {
			return nil
		}
		c.late[ph].record(int64(time.Since(due)))
		c.reqs = c.reqs[:0]
		for i := 0; i < openBurst; i++ {
			c.reqs = append(c.reqs, c.g.next())
		}
		if err := c.roundTrip(c.reqs, due, ph); err != nil {
			return err
		}
		c.done.Add(openBurst)
	}
}

// sweep reads back the last value this connection wrote to each key.
func (c *conn) sweep() error {
	var reqs []request
	for i, d := range c.g.dirty {
		if d {
			idx := uint64(2*i + c.id)
			reqs = append(reqs, request{kind: opGet, idx: idx, want: value(idx, uint64(c.g.last[i])), exact: true})
		}
	}
	for _, f := range c.g.live[c.g.head:] {
		reqs = append(reqs, request{kind: opGet, idx: f.idx, want: f.val, exact: true})
	}
	return c.each(reqs, preloadDepth)
}

// openFirstTick staggers the connections' schedules evenly over a period.
func openFirstTick(start time.Time, id int) time.Time {
	return start.Add(time.Duration(id) * openPeriodNS / numConns)
}

// offeredBy is how many open-loop requests had come due by t.
func offeredBy(start, t time.Time) int64 {
	var n int64
	for id := 0; id < numConns; id++ {
		if d := t.Sub(openFirstTick(start, id)); d >= 0 {
			n += (int64(d)/openPeriodNS + 1) * openBurst
		}
	}
	return n
}

// mark is what the run samples at a window boundary.
type mark struct {
	t             time.Time
	done, offered int64
	serverCPU     float64
	clientCPU     float64
}

// result is one run's outcome: metric values by name, plus the spread of
// the windows behind each end-to-end metric that has one.
type result struct {
	values  map[string]float64
	spreads map[string]float64
	// CPU per operation over the windows as measured, in microseconds.
	clientCPU, serverCPU float64
	attempted, failed    int64
	invalid              []string // reasons the run does not count; empty when valid
	notes                []string
}

// session is one server child with its load connections.
type session struct {
	cfg   runConfig
	w     *workload
	pool  string
	srv   *child
	conns []*conn
	phase atomic.Int32
}

func (s *session) closeConns() {
	for _, c := range s.conns {
		if c.wire != nil {
			c.wire.close()
			c.wire = nil
		}
	}
}

// parallel runs fn on every connection at once and returns the first error.
func (s *session) parallel(fn func(*conn) error) error {
	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	for i, c := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setUp spawns a server on a fresh pool, connects, and preloads. It
// returns how long that took: spawn -> +PONG -> preload done.
func (s *session) setUp(zipf zipfTable) (float64, error) {
	begin := time.Now()
	os.Remove(s.pool) // a fresh pool every time; absent after a SIGKILL teardown anyway
	srv, err := startServer(s.cfg.bin, s.pool)
	if err != nil {
		return 0, err
	}
	s.srv = srv
	s.conns = s.conns[:0]
	for id := 0; id < numConns; id++ {
		c := &conn{id: id, w: s.w, phase: &s.phase, g: newGen(s.w, s.cfg.seed, id, zipf)}
		s.conns = append(s.conns, c)
		if c.wire, err = dial(srv.addr); err != nil {
			return 0, err
		}
	}
	if err := s.parallel((*conn).preload); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	return time.Since(begin).Seconds(), nil
}

func (s *session) tearDown() {
	s.closeConns()
	if s.srv != nil {
		s.srv.kill()
		s.srv = nil
	}
}

func (s *session) sample(start time.Time) (mark, error) {
	m := mark{t: time.Now()}
	for _, c := range s.conns {
		m.done += c.done.Load()
	}
	if s.w.open {
		m.offered = offeredBy(start, m.t)
	}
	var err error
	if m.clientCPU, err = procCPUSeconds(os.Getpid()); err != nil {
		return m, err
	}
	m.serverCPU, err = procCPUSeconds(s.srv.cmd.Process.Pid)
	return m, err
}

// runWorkload is one complete run: set-up, load, verification, teardown.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*result, error) {
	if err := os.MkdirAll(filepath.Join(cfg.root, buildDir), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(cfg.root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s := &session{cfg: cfg, w: w, pool: filepath.Join(dir, "kv.pool")}
	defer s.tearDown()

	var zipf zipfTable
	if w.zipf {
		zipf = newZipf(w.keys, zipfS)
	}

	// Set up several times and keep the last: setup_s is the median. A
	// set-up that takes seconds averages over its own preload and is not
	// repeated, so that every run fits the driver's time cap.
	var setups []float64
	for spent := 0.0; len(setups) < setupReps && spent < setupBudget.Seconds(); {
		s.tearDown()
		sec, err := s.setUp(zipf)
		if err != nil {
			return nil, err
		}
		setups = append(setups, sec)
		spent += sec
	}
	ctl, err := dial(s.srv.addr)
	if err != nil {
		return nil, err
	}
	defer ctl.close()

	// Load: warm-up, then the windows, sampled at each boundary.
	start := time.Now()
	s.phase.Store(phaseWarm)
	var loadErr error
	loaded := make(chan struct{})
	go func() {
		loadErr = s.parallel(func(c *conn) error {
			if w.open {
				return c.openLoop(openFirstTick(start, c.id))
			}
			return c.closedLoop()
		})
		close(loaded)
	}()
	stopLoad := func() error {
		s.phase.Store(phaseStop)
		<-loaded
		return loadErr
	}
	defer stopLoad() // on every early return; harmless after the load has ended
	sleepUntil := func(t time.Time) error {
		select {
		case <-loaded:
			return fmt.Errorf("load ended early: %w", loadErr)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Until(t)):
			return nil
		}
	}
	if err := sleepUntil(start.Add(cfg.warmup)); err != nil {
		return nil, err
	}
	stats0, err := ctl.bulk("STATS")
	if err != nil {
		return nil, err
	}
	var marks [numWindows + 1]mark
	for k := 0; k <= numWindows; k++ {
		if marks[k], err = s.sample(start); err != nil {
			return nil, err
		}
		if k == numWindows {
			break
		}
		s.phase.Store(int32(k + 1))
		if err := sleepUntil(marks[0].t.Add(time.Duration(k+1) * cfg.window)); err != nil {
			return nil, err
		}
	}
	if err := stopLoad(); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	stats1, err := ctl.bulk("STATS")
	if err != nil {
		return nil, err
	}

	// Verification: every connection reads back what it last wrote.
	if err := s.parallel((*conn).sweep); err != nil {
		return nil, fmt.Errorf("final sweep: %w", err)
	}
	info, err := ctl.bulk("INFO")
	if err != nil {
		return nil, err
	}
	rss, err := s.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	res := &result{values: map[string]float64{}, spreads: map[string]float64{}}
	s.endToEnd(res, marks[:], median(setups), rss)
	s.layers(res, marks[:], fields(stats0), fields(stats1), fields(info))
	if res.values["workloads.chain_hops_per_get"], res.values["workloads.buckets_used_frac"], err = chainShape(w); err != nil {
		return nil, err
	}

	// Restart check (always on set_churn; on every workload when traced,
	// because pool.restart_s is a per-layer metric), then the kill -9 probe.
	if w.churn || cfg.trace {
		if err := s.restartCheck(res); err != nil {
			return nil, fmt.Errorf("restart check: %w", err)
		}
	}
	if cfg.trace {
		if err := s.kill9Probe(res); err != nil {
			return nil, fmt.Errorf("kill -9 probe: %w", err)
		}
	}
	for _, c := range s.conns {
		res.attempted += c.attempted
		res.failed += c.failed
		res.notes = append(res.notes, c.notes...)
	}
	res.values["client.failed_frac"] = ratio(float64(res.failed), float64(res.attempted))
	return res, nil
}

// endToEnd fills in what a user of the server sees. Each windowed metric
// is the median of the windows, with (max-min)/median as the run's own
// spread.
//
// This host's speed moves by a quarter from one minute to the next, and the
// server's and the generator's CPU per operation move with it, together.
// So the run prices the host by the generator's own CPU per operation
// against its reference (README.md, "Host factor"): CPU time is reported at
// the reference host's speed on every workload, and so is wall-clock time
// on the workloads whose wall-clock is CPU time.
func (s *session) endToEnd(res *result, marks []mark, setupS, rssMB float64) {
	var ops, p50, p90 []float64
	for k := 0; k < numWindows; k++ {
		a, b := marks[k], marks[k+1]
		ops = append(ops, float64(b.done-a.done)/b.t.Sub(a.t).Seconds())
		var all hist
		for _, c := range s.conns {
			all.merge(&c.lat[k+1][0])
			all.merge(&c.lat[k+1][1])
		}
		p50 = append(p50, all.quantile(0.5)/1e3)
		p90 = append(p90, all.quantile(0.9)/1e3)
	}
	first, last := marks[0], marks[numWindows]
	done := float64(last.done - first.done)
	res.clientCPU = ratio((last.clientCPU-first.clientCPU)*1e6, done)
	res.serverCPU = ratio((last.serverCPU-first.serverCPU)*1e6, done)
	host := res.clientCPU / s.w.refClientUS
	res.values["client.host_factor"] = host
	wall := 1.0 // what a wall-clock time is divided by
	if s.w.hostBound {
		wall = host
	}
	windowed := func(name string, v []float64, scale float64) {
		res.values[name] = median(v) * scale
		res.spreads[name] = spread(v)
	}
	windowed("ops_per_s", ops, wall)
	windowed("lat_p50_us", p50, 1/wall)
	windowed("lat_p90_us", p90, 1/wall)
	res.values["server_cpu_us_per_op"] = res.serverCPU / host
	res.values["server_rss_mb"] = rssMB
	res.values["setup_s"] = setupS
}

// layers fills in the per-layer metrics an end-to-end run can see from
// outside: STATS and INFO deltas over the windows, and the generator's own
// account of itself.
func (s *session) layers(res *result, marks []mark, s0, s1, info map[string]float64) {
	v := res.values
	d := func(name string) float64 { return s1[name] - s0[name] }
	// A phase's time over the windows, from its running mean and count.
	phase := func(name string) float64 {
		sum := s1["phase_"+name+"_mean_us"]*s1["lat_mutation_ops"] - s0["phase_"+name+"_mean_us"]*s0["lat_mutation_ops"]
		return max(0, ratio(sum, d("lat_mutation_ops")))
	}
	batches := d("batches_committed")
	v["server.mean_batch"] = ratio(d("batched_ops"), batches)
	v["server.batch_le2_frac"] = ratio(d("batch_hist_1")+d("batch_hist_2"), batches)
	for _, p := range []string{"queue", "journal", "fence", "apply", "ack"} {
		v["server.phase_"+p+"_us"] = phase(p)
	}
	kget := d("ops_get") / 1000
	v["server.read_retries_per_kget"] = ratio(d("read_retries"), kget)
	v["server.read_fallbacks_per_kget"] = ratio(d("read_fallbacks"), kget)
	muts := d("ops_set") + d("ops_del")
	for _, c := range []string{"fences", "flushes", "writes", "fences_journal", "fences_user_data", "fences_alloc_redo"} {
		v["pmem."+c+"_per_mut"] = ratio(d("pmem_"+c), muts)
	}
	live := float64(s.w.keys)
	var busy, attempted float64
	var get, set, late hist
	for _, c := range s.conns {
		live += float64(len(c.g.live) - c.g.head)
		busy += float64(c.busy)
		attempted += float64(c.attempted)
		for k := 1; k <= numWindows; k++ {
			get.merge(&c.lat[k][0])
			set.merge(&c.lat[k][1])
			late.merge(&c.late[k])
		}
	}
	v["server.busy_frac"] = ratio(busy, attempted)
	v["alloc.heap_bytes_per_key"] = ratio(info["heap_in_use_bytes"], live)

	first, last := marks[0], marks[numWindows]
	done := float64(last.done - first.done)
	v["client.cpu_us_per_op"] = res.clientCPU
	v["client.samples"] = float64(get.n + set.n)
	v["client.achieved_frac"] = 1 // a closed loop offers only what it completes
	if s.w.open {
		v["client.achieved_frac"] = ratio(done, float64(last.offered-first.offered))
	}
	v["client.gen_late_p50_us"] = late.quantile(0.5) / 1e3
	v["client.gen_late_p99_us"] = late.quantile(0.99) / 1e3
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p999", 0.999}} {
		v["client.get_"+q.name+"_us"] = get.quantile(q.q) / 1e3
		v["client.set_"+q.name+"_us"] = set.quantile(q.q) / 1e3
	}

	// Generator honesty: a late or saturated generator measures itself.
	if s.w.open && v["client.gen_late_p50_us"] > lateLimitUS {
		res.invalid = append(res.invalid, fmt.Sprintf("generator ran late: median lateness %.0f us > %d us",
			v["client.gen_late_p50_us"], lateLimitUS))
	}
	if !s.w.open && res.clientCPU > res.serverCPU {
		res.invalid = append(res.invalid, fmt.Sprintf("generator CPU %.2f us/op exceeds the server's %.2f us/op",
			res.clientCPU, res.serverCPU))
	}
}

// verifier is a throw-away connection for read-backs after a restart.
func (s *session) verifier() (*conn, error) {
	c := &conn{id: -1, w: s.w}
	var err error
	c.wire, err = dial(s.srv.addr)
	return c, err
}

// restartCheck stops the server cleanly, starts it again on the same pool
// file, and re-reads a sample of acknowledged writes. pool.restart_s runs
// from the SIGTERM to the first verified GET.
func (s *session) restartCheck(res *result) error {
	var sample []request
	step := uint64(s.w.keys / restartKeys)
	for idx := uint64(0); idx < uint64(s.w.keys); idx += step {
		g := s.conns[idx%numConns].g
		sample = append(sample, request{kind: opGet, idx: idx, want: value(idx, uint64(g.last[idx>>1])), exact: true})
	}
	s.closeConns()
	begin := time.Now()
	if err := s.srv.signalAndWait(syscall.SIGTERM, 60*time.Second); err != nil {
		return err
	}
	srv, err := startServer(s.cfg.bin, s.pool)
	if err != nil {
		return err
	}
	s.srv = srv
	c, err := s.verifier()
	if err != nil {
		return err
	}
	defer c.wire.close()
	if err := c.each(sample[:1], 1); err != nil {
		return err
	}
	res.values["pool.restart_s"] = time.Since(begin).Seconds()
	if err := c.each(sample[1:], preloadDepth); err != nil {
		return err
	}
	res.attempted += c.attempted
	res.failed += c.failed
	res.notes = append(res.notes, c.notes...)
	return nil
}

// kill9Probe acknowledges a second of SETs, kills the server with SIGKILL,
// restarts it, and reports the share of those acknowledged writes that are
// gone. It is a measurement of the durability gap (ROADMAP item 1), not a
// correctness check: its losses are reported, never counted as failures.
func (s *session) kill9Probe(res *result) error {
	c, err := s.verifier()
	if err != nil {
		return err
	}
	// acked[idx] reads back the last acknowledged value of key index idx.
	// The bursts go on for a second, and until every index is written.
	acked := make([]request, restartKeys)
	counter := uint64(kill9Counter)
	reqs := make([]request, closedDepth)
	for end := time.Now().Add(kill9Seconds * time.Second); time.Now().Before(end) || counter-kill9Counter < restartKeys; {
		for i := range reqs {
			counter++
			idx := counter % restartKeys
			reqs[i] = request{kind: opSet, idx: idx, want: value(idx, counter), exact: true}
		}
		if err := c.each(reqs, closedDepth); err != nil {
			c.wire.close()
			return err
		}
		for _, r := range reqs {
			acked[r.idx] = request{kind: opGet, idx: r.idx, want: r.want, exact: true}
		}
	}
	c.wire.close()
	if c.failed > 0 {
		return fmt.Errorf("%d of %d probe SETs were not acknowledged: %v", c.failed, c.attempted, c.notes)
	}
	s.srv.kill()
	if s.srv, err = startServer(s.cfg.bin, s.pool); err != nil {
		return err
	}
	if c, err = s.verifier(); err != nil {
		return err
	}
	defer c.wire.close()
	if err := c.each(acked, preloadDepth); err != nil {
		return err
	}
	res.values["pmem.kill9_acked_lost_frac"] = ratio(float64(c.failed), float64(c.attempted))
	return nil
}
