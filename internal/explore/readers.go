// Reader-vs-crash campaign: seeded rounds of a live single-shard server
// whose readers hammer GET and SCAN over real connections — through the
// seqlock lock-free read path by default — while a client write stream
// churns the store and injected power cuts land mid-commit. The read
// contract under test: a reader must never observe a torn value (bytes
// that were never any committed value), a phantom key (a key nobody ever
// wrote), or a value outside the submitted history for its key; every
// acknowledged write must survive the power cut with its exact value (or
// be superseded by the one in-flight operation); and the rebooted server
// must recover and serve lock-free reads again. Like the replication
// campaign this is not an image-replay enumeration: the seqlock bracket
// only exists between live goroutines, so the campaign runs the real
// server and injects crashes with the device op-count trigger while
// readers are in flight.
package explore

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corundum/internal/obs"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
)

// readerScenarios is the round rotation. Crash coverage is front-loaded
// so trimmed runs (short tests, race builds) still cross a power cut;
// the steady round adds the exact-final-state check a crash round
// cannot make (its in-flight tail is legitimately ambiguous).
var readerScenarios = []string{
	"crash-mid",
	"steady",
	"crash-late",
}

// ReadersConfig parameterizes one reader-vs-crash campaign.
type ReadersConfig struct {
	// Rounds is how many rounds to run; round r uses scenario
	// readerScenarios[r % 3] (default 3 — one full rotation).
	Rounds int
	// WritesPerRound is the churn stream length (default 400).
	WritesPerRound int
	// HotKeys is the overwrite/delete band readers hammer (default 48).
	HotKeys int
	// Readers is how many concurrent reader connections run (default 8).
	Readers int
	// Buckets sizes the store directory (default 128 — small on purpose,
	// so chains grow and lock-free walks cross several entries).
	Buckets int
	// PoolSize is the shard pool size (default 16 MiB).
	PoolSize int
	// LockedReads, when set, runs the whole campaign through the RLock
	// fallback path instead of the seqlock path — the A/B control.
	LockedReads bool
	// Seed drives all randomness; equal seeds replay equal campaigns
	// up to goroutine scheduling (default 1).
	Seed int64
	// RoundTimeout bounds one round end to end (default 120s — sized
	// for race-detector slowdown; a healthy round takes ~2s).
	RoundTimeout time.Duration
	// Registry, when set, receives live reader_chaos_* counters.
	Registry *obs.Registry
	// Stats, when set, is updated live; otherwise allocated internally.
	Stats *ReadersStats
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (c ReadersConfig) withDefaults() ReadersConfig {
	if c.Rounds <= 0 {
		c.Rounds = len(readerScenarios)
	}
	if c.WritesPerRound <= 0 {
		c.WritesPerRound = 400
	}
	if c.HotKeys <= 0 {
		c.HotKeys = 48
	}
	if c.Readers <= 0 {
		c.Readers = 8
	}
	if c.Buckets <= 0 {
		c.Buckets = 128
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 16 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 120 * time.Second
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// ReadersStats are live campaign counters, safe for concurrent reads.
type ReadersStats struct {
	// Rounds counts completed rounds.
	Rounds atomic.Uint64
	// Acked counts churn writes acknowledged across all rounds.
	Acked atomic.Uint64
	// Reads counts reader GETs that returned a value or a miss.
	Reads atomic.Uint64
	// ScanPairs counts key/value pairs readers verified out of SCANs.
	ScanPairs atomic.Uint64
	// Crashes counts injected power cuts that fired.
	Crashes atomic.Uint64
	// Reboots counts crash→reattach→reserve cycles.
	Reboots atomic.Uint64
	// LockFreeReads sums the servers' seqlock-path read counters.
	LockFreeReads atomic.Uint64
	// ReadRetries sums the servers' bracket-conflict retry counters.
	ReadRetries atomic.Uint64
	// Fallbacks sums the servers' locked-fallback counters.
	Fallbacks atomic.Uint64
	// Violations counts read-contract failures.
	Violations atomic.Uint64
}

func registerReadersMetrics(reg *obs.Registry, st *ReadersStats) {
	reg.CounterFunc("reader_chaos_rounds_total", "Reader-vs-crash rounds completed.", nil, st.Rounds.Load)
	reg.CounterFunc("reader_chaos_acked_total", "Churn writes acknowledged.", nil, st.Acked.Load)
	reg.CounterFunc("reader_chaos_reads_total", "Reader GETs served.", nil, st.Reads.Load)
	reg.CounterFunc("reader_chaos_scan_pairs_total", "SCAN pairs verified.", nil, st.ScanPairs.Load)
	reg.CounterFunc("reader_chaos_crashes_total", "Power cuts injected.", nil, st.Crashes.Load)
	reg.CounterFunc("reader_chaos_reboots_total", "Crash/reattach/reserve cycles.", nil, st.Reboots.Load)
	reg.CounterFunc("reader_chaos_lockfree_reads_total", "Reads served through the seqlock path.", nil, st.LockFreeReads.Load)
	reg.CounterFunc("reader_chaos_read_retries_total", "Seqlock bracket conflicts retried.", nil, st.ReadRetries.Load)
	reg.CounterFunc("reader_chaos_fallbacks_total", "Reads that fell back to the locked path.", nil, st.Fallbacks.Load)
	reg.CounterFunc("reader_chaos_violations_total", "Read-contract violations.", nil, st.Violations.Load)
}

// ReadersViolation is one read-contract failure.
type ReadersViolation struct {
	// Round is the campaign round (0-based).
	Round int
	// Scenario names the round's script.
	Scenario string
	// Err names the violated invariant.
	Err error
}

func (v ReadersViolation) String() string {
	return fmt.Sprintf("round %d (%s): %v", v.Round, v.Scenario, v.Err)
}

// ReadersResult summarizes a completed reader-vs-crash campaign.
type ReadersResult struct {
	// Rounds echoes the configured round count.
	Rounds int
	// Stats is the final counter snapshot source.
	Stats *ReadersStats
	// Violations holds every contract failure.
	Violations []ReadersViolation
}

// readHistory is the submitted-value set: every value ever sent for a
// key (seeds included), recorded BEFORE the request hits the wire so no
// reader can observe a value ahead of its record. A value a reader
// observes that is not in its key's set is torn (bytes that were never
// any submitted value — CRCs make an accidental 64-bit collision with a
// stale committed value the only alternative, and values are unique per
// round) or phantom (a key nobody ever wrote has a nil set).
type readHistory struct {
	mu   sync.RWMutex
	vals map[uint64]map[uint64]bool
}

func newReadHistory() *readHistory {
	return &readHistory{vals: make(map[uint64]map[uint64]bool)}
}

func (h *readHistory) add(key, val uint64) {
	h.mu.Lock()
	m := h.vals[key]
	if m == nil {
		m = make(map[uint64]bool)
		h.vals[key] = m
	}
	m[val] = true
	h.mu.Unlock()
}

func (h *readHistory) knows(key, val uint64) bool {
	h.mu.RLock()
	ok := h.vals[key][val]
	h.mu.RUnlock()
	return ok
}

// readerOp is one churn operation; pending records the single in-flight
// operation (the writer is synchronous) at the moment a power cut fired
// — the only write whose survival is legitimately ambiguous.
type readerOp struct {
	del bool
	key uint64
	val uint64
}

// readerWriter drives the synchronous churn stream: overwrites and
// deletes in the hot band plus inserts of brand-new cold keys, so entry
// blocks free and recycle under the readers (what makes a stale chain
// pointer dangerous). model tracks the acked state exactly: the writer
// acks in submission order with at most one operation in flight.
type readerWriter struct {
	ackedN  atomic.Int64
	done    chan struct{}
	model   map[uint64]uint64
	pending *readerOp
	err     error
	// arm, when set, is called by the writer itself on its armAt-th ack,
	// before it sends the next mutation: a power cut armed "part-way
	// through the stream" cannot be outrun by the stream, however fast
	// the server acks (a campaign goroutine polling the ack count could).
	armAt int64
	arm   func()
}

func (w *readerWriter) run(addr string, n, hotKeys int, round int, seed int64, hist *readHistory, halted func() bool, deadline time.Time) {
	defer close(w.done)
	rng := rand.New(rand.NewSource(seed))
	var conn net.Conn
	var rd *bufio.Reader
	drop := func() {
		if conn != nil {
			conn.Close()
			conn = nil
		}
	}
	defer drop()
	cold := uint64(1 << 20)
	vbase := uint64(round+1) << 40
	for i := 0; i < n; i++ {
		op := readerOp{}
		switch pick := rng.Intn(100); {
		case pick < 15:
			op.del = true
			op.key = uint64(rng.Intn(hotKeys))
		case pick < 85:
			op.key = uint64(rng.Intn(hotKeys))
			op.val = vbase | uint64(i+1)
		default:
			op.key = cold
			op.val = vbase | uint64(i+1)
			cold++
		}
		cmd := fmt.Sprintf("SET %d %d\n", op.key, op.val)
		if op.del {
			cmd = fmt.Sprintf("DEL %d\n", op.key)
		} else {
			hist.add(op.key, op.val) // before the wire: observe ⇒ recorded
		}
		for {
			if halted() {
				// Power cut: this op is the one in-flight maybe; all
				// earlier ops are acked (synchronous stream).
				w.pending = &op
				return
			}
			if time.Now().After(deadline) {
				w.err = fmt.Errorf("writer wedged at mutation %d/%d", i, n)
				return
			}
			if conn == nil {
				cn, err := net.DialTimeout("tcp", addr, time.Second)
				if err != nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				conn, rd = cn, bufio.NewReader(cn)
			}
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			if _, err := io.WriteString(conn, cmd); err != nil {
				drop()
				continue
			}
			line, err := rd.ReadString('\n')
			if err != nil {
				drop()
				time.Sleep(2 * time.Millisecond)
				continue
			}
			line = strings.TrimRight(line, "\r\n")
			if strings.HasPrefix(line, "+OK") || (op.del && strings.HasPrefix(line, ":")) {
				if op.del {
					delete(w.model, op.key)
				} else {
					w.model[op.key] = op.val
				}
				if w.ackedN.Add(1) == w.armAt && w.arm != nil {
					w.arm()
				}
				break
			}
			// -BUSY, halting shard, …: back off; the halted() check above
			// decides whether this op becomes the crash's in-flight maybe.
			time.Sleep(2 * time.Millisecond)
		}
	}
}

type readersCampaign struct {
	cfg   ReadersConfig
	stats *ReadersStats
	mu    sync.Mutex // viols: readers fail concurrently
	viols []ReadersViolation
}

// RunReaders runs the reader-vs-crash campaign. The returned error
// covers infrastructure failures only (listen/attach errors, a wedged
// round); contract failures land in ReadersResult.Violations.
func RunReaders(cfg ReadersConfig) (*ReadersResult, error) {
	cfg = cfg.withDefaults()
	c := &readersCampaign{cfg: cfg, stats: cfg.Stats}
	if c.stats == nil {
		c.stats = &ReadersStats{}
	}
	if cfg.Registry != nil {
		registerReadersMetrics(cfg.Registry, c.stats)
	}
	for r := 0; r < cfg.Rounds; r++ {
		scen := readerScenarios[r%len(readerScenarios)]
		cfg.Log("explore: readers round %d/%d scenario=%s", r+1, cfg.Rounds, scen)
		if err := c.runRound(r, scen); err != nil {
			return nil, fmt.Errorf("explore: readers round %d (%s): %w", r, scen, err)
		}
		c.stats.Rounds.Add(1)
	}
	return &ReadersResult{Rounds: cfg.Rounds, Stats: c.stats, Violations: c.viols}, nil
}

func (c *readersCampaign) fail(round int, scen string, err error) {
	c.stats.Violations.Add(1)
	v := ReadersViolation{Round: round, Scenario: scen, Err: err}
	c.mu.Lock()
	c.viols = append(c.viols, v)
	c.mu.Unlock()
	c.cfg.Log("explore: READERS VIOLATION %s", v)
}

func (c *readersCampaign) opts() server.Options {
	return server.Options{
		Buckets:     c.cfg.Buckets,
		MaxBatch:    16,
		LockedReads: c.cfg.LockedReads,
	}
}

// harvest folds a server's read-path counters into the campaign stats.
func (c *readersCampaign) harvest(srv *server.Server) {
	lf, retries, fb := srv.ReadPathStats()
	c.stats.LockFreeReads.Add(lf)
	c.stats.ReadRetries.Add(retries)
	c.stats.Fallbacks.Add(fb)
}

func (c *readersCampaign) runRound(round int, scen string) error {
	rng := rand.New(rand.NewSource(c.cfg.Seed ^ int64(round)*0x9E3779B97F4A7C1))
	deadline := time.Now().Add(c.cfg.RoundTimeout)

	p, err := pool.Create("", pool.Config{
		Size:     c.cfg.PoolSize,
		Journals: 8,
		Mem:      pmem.Options{TrackCrash: true},
	})
	if err != nil {
		return fmt.Errorf("create pool: %w", err)
	}
	dev := p.Device()
	srv, err := server.NewSharded([]*pool.Pool{p}, c.opts())
	if err != nil {
		return err
	}
	defer func() { _ = srv.Close() }()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	// Seed the hot band so readers observe values from the first GET and
	// every SCAN is non-trivial. Seed values land in the history first.
	hist := newReadHistory()
	w := &readerWriter{done: make(chan struct{}), model: make(map[uint64]uint64, c.cfg.HotKeys)}
	if err := c.seed(addr, hist, w.model, deadline); err != nil {
		return err
	}

	// Readers hammer for the whole round, crash window included: the
	// point is what they observe WHILE the cut lands.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for i := 0; i < c.cfg.Readers; i++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			c.reader(round, scen, addr, seed, stop, hist)
		}(c.cfg.Seed ^ int64(round*100+i+1))
	}

	if scen == "crash-mid" || scen == "crash-late" {
		w.armAt = int64(c.cfg.WritesPerRound / 4)
		if scen == "crash-late" {
			w.armAt = int64(2 * c.cfg.WritesPerRound / 3)
		}
		w.arm = func() { dev.CrashAt(dev.OpCount() + uint64(50+rng.Intn(400))) }
	}
	go w.run(addr, c.cfg.WritesPerRound, c.cfg.HotKeys, round,
		c.cfg.Seed^int64(round), hist, srv.Halted, deadline)

	crashed := false
	switch scen {
	case "steady":
	case "crash-mid", "crash-late":
		fired := false
		for !time.Now().After(deadline) {
			if srv.ShardDown(0) != nil {
				fired = true
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if !fired {
			c.fail(round, scen, fmt.Errorf("power cut never fired"))
			break
		}
		c.stats.Crashes.Add(1)
		crashed = true
	default:
		return fmt.Errorf("unknown scenario %q", scen)
	}

	<-w.done
	c.stats.Acked.Add(uint64(w.ackedN.Load()))
	if w.err != nil {
		c.fail(round, scen, w.err)
		close(stop)
		rwg.Wait()
		return nil
	}

	if !crashed {
		// Steady round: with every write acked and the stream quiet, the
		// keyspace must equal the acked model exactly — the check a crash
		// round cannot make.
		final, err := scanUntil(addr, deadline)
		if err != nil {
			c.fail(round, scen, fmt.Errorf("final scan: %w", err))
		} else if !mapsEqual(final, w.model) {
			c.fail(round, scen, fmt.Errorf("final state diverged from acked model: %d keys vs %d", len(final), len(w.model)))
		}
	}

	// Quiesce every reader and handler BEFORE the power cut replays: the
	// crash replay rewrites the whole device image outside the atomic
	// word discipline, exactly like the machine losing power.
	close(stop)
	rwg.Wait()
	c.harvest(srv)
	_ = srv.Close()

	if crashed {
		dev.Crash()
		if err := c.verifyRecovered(round, scen, dev, w, deadline); err != nil {
			return err
		}
	}
	c.cfg.Log("explore: readers round %d done: acked=%d reads=%d", round, w.ackedN.Load(), c.stats.Reads.Load())
	return nil
}

// seed loads the hot band through the client protocol.
func (c *readersCampaign) seed(addr string, hist *readHistory, model map[uint64]uint64, deadline time.Time) error {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	for k := uint64(0); k < uint64(c.cfg.HotKeys); k++ {
		v := 0xC0FFEE<<32 | k
		hist.add(k, v)
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("seeding wedged at key %d", k)
			}
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			if _, err := fmt.Fprintf(conn, "SET %d %d\n", k, v); err != nil {
				return err
			}
			line, err := rd.ReadString('\n')
			if err != nil {
				return err
			}
			if strings.HasPrefix(line, "+OK") {
				model[k] = v
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// reader is one hammering connection: GETs across the hot band with a
// SCAN burst mixed in, each observation checked against the submitted
// history. Refusals (-BUSY, a halting shard) and connection drops are
// part of the script — the reader backs off and keeps hammering until
// the round stops it.
func (c *readersCampaign) reader(round int, scen, addr string, seed int64, stop chan struct{}, hist *readHistory) {
	rng := rand.New(rand.NewSource(seed))
	var conn net.Conn
	var rd *bufio.Reader
	drop := func() {
		if conn != nil {
			conn.Close()
			conn = nil
		}
	}
	defer drop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if conn == nil {
			cn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			conn, rd = cn, bufio.NewReader(cn)
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if i%24 == 23 {
			limit := 8 + rng.Intn(40)
			if _, err := fmt.Fprintf(conn, "SCAN %d\n", limit); err != nil {
				drop()
				continue
			}
			head, err := rd.ReadString('\n')
			if err != nil {
				drop()
				continue
			}
			head = strings.TrimRight(head, "\r\n")
			if !strings.HasPrefix(head, "*") {
				continue // refused: busy or halting
			}
			var cnt int
			if _, err := fmt.Sscanf(head, "*%d", &cnt); err != nil {
				c.fail(round, scen, fmt.Errorf("bad SCAN header %q", head))
				return
			}
			for j := 0; j < cnt; j++ {
				line, err := rd.ReadString('\n')
				if err != nil {
					drop()
					break
				}
				var k, v uint64
				if _, err := fmt.Sscanf(strings.TrimRight(line, "\r\n"), "%d %d", &k, &v); err != nil {
					c.fail(round, scen, fmt.Errorf("bad SCAN pair %q", line))
					return
				}
				if !hist.knows(k, v) {
					c.fail(round, scen, fmt.Errorf("SCAN observed torn or phantom pair %d=%d", k, v))
					return
				}
				c.stats.ScanPairs.Add(1)
			}
			continue
		}
		k := uint64(rng.Intn(c.cfg.HotKeys))
		if rng.Intn(8) == 0 {
			k = 1<<20 + uint64(rng.Intn(c.cfg.WritesPerRound/4+1))
		}
		if _, err := fmt.Fprintf(conn, "GET %d\n", k); err != nil {
			drop()
			continue
		}
		line, err := rd.ReadString('\n')
		if err != nil {
			drop()
			continue
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "$-1":
			// Absence is always legitimate: deleted, or never written.
			c.stats.Reads.Add(1)
		case strings.HasPrefix(line, ":"):
			var v uint64
			if _, err := fmt.Sscanf(line, ":%d", &v); err != nil {
				c.fail(round, scen, fmt.Errorf("bad GET reply %q", line))
				return
			}
			if !hist.knows(k, v) {
				c.fail(round, scen, fmt.Errorf("GET %d observed torn or uncommitted value %d", k, v))
				return
			}
			c.stats.Reads.Add(1)
		default:
			// -BUSY / halting shard: back off, keep hammering.
			time.Sleep(time.Millisecond)
		}
	}
}

// verifyRecovered reboots the crashed device — reattach runs recovery —
// and checks the durability half of the contract: every key's recovered
// value is its last acked value or the single in-flight operation's,
// absence only where the last relevant operation was a delete (or the
// key was never acked), and the recovered server serves reads again,
// lock-free when the campaign runs the seqlock path.
func (c *readersCampaign) verifyRecovered(round int, scen string, dev *pmem.Device, w *readerWriter, deadline time.Time) error {
	p, err := pool.Attach(dev)
	if err != nil {
		c.fail(round, scen, fmt.Errorf("reattach after power cut: %w", err))
		return nil
	}
	srv, err := server.NewSharded([]*pool.Pool{p}, c.opts())
	if err != nil {
		_ = p.Close()
		return fmt.Errorf("reopen after power cut: %w", err)
	}
	defer func() { c.harvest(srv); _ = srv.Close(); _ = p.Close() }()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	c.stats.Reboots.Add(1)

	got, err := scanUntil(ln.Addr().String(), deadline)
	if err != nil {
		c.fail(round, scen, fmt.Errorf("post-recovery scan: %w", err))
		return nil
	}

	// The writer is synchronous: at the cut, every op but one is acked
	// (w.model is their exact fold), and w.pending is the single maybe.
	keys := make(map[uint64]bool, len(w.model)+len(got)+1)
	for k := range w.model {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	if w.pending != nil {
		keys[w.pending.key] = true
	}
	for k := range keys {
		mv, acked := w.model[k]
		gv, present := got[k]
		pend := w.pending != nil && w.pending.key == k
		switch {
		case present && acked && gv == mv:
		case present && pend && !w.pending.del && gv == w.pending.val:
		case present:
			c.fail(round, scen, fmt.Errorf("recovered %d=%d is neither the acked value (%d, acked=%v) nor in-flight", k, gv, mv, acked))
		case !acked: // never acked a SET: absence is the ground state
		case pend && w.pending.del: // in-flight delete may have committed
		default:
			c.fail(round, scen, fmt.Errorf("acked write %d=%d lost after power cut", k, mv))
		}
	}

	// The rebooted server must serve the read path again — through the
	// seqlock when the campaign runs lock-free (nothing here may commit
	// concurrently, so every bracket is stable on the first spin).
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	for k := uint64(0); k < uint64(c.cfg.HotKeys); k++ {
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := fmt.Fprintf(conn, "GET %d\n", k); err != nil {
			return err
		}
		line, err := rd.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		want, present := got[k]
		switch {
		case line == "$-1" && !present:
		case strings.HasPrefix(line, fmt.Sprintf(":%d", want)) && present:
		default:
			c.fail(round, scen, fmt.Errorf("recovered server GET %d = %q, want %d (present=%v)", k, line, want, present))
		}
	}
	if lf, _, _ := srv.ReadPathStats(); !c.cfg.LockedReads && lf == 0 {
		c.fail(round, scen, fmt.Errorf("recovered server served no lock-free reads"))
	}
	return nil
}

// scanUntil polls scanAddr until the server answers a full SCAN (it may
// refuse briefly while a reboot settles) or the deadline passes.
func scanUntil(addr string, deadline time.Time) (map[uint64]uint64, error) {
	for {
		m, err := scanAddr(addr)
		if err == nil && m != nil {
			return m, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("server kept refusing SCAN")
			}
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}
