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
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"corundum/internal/client"
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
	reg.CounterFunc("reader_chaos_lockfree_reads_total", "Reads served inside a seqlock bracket.", nil, st.LockFreeReads.Load)
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

// churn is the readers campaign's write stream: overwrites and deletes
// in the hot band plus inserts of brand-new cold keys, so entry blocks
// free and recycle under the readers (what makes a stale chain pointer
// dangerous). Values are unique per round, and each lands in the history
// before it hits the wire: observe ⇒ recorded.
func churn(rng *rand.Rand, hotKeys, round int, hist *readHistory) func(i int) mutation {
	cold := uint64(1 << 20)
	vbase := uint64(round+1) << 40
	return func(i int) mutation {
		var m mutation
		switch pick := rng.Intn(100); {
		case pick < 15:
			m.del = true
			m.key = uint64(rng.Intn(hotKeys))
		case pick < 85:
			m.key = uint64(rng.Intn(hotKeys))
			m.val = vbase | uint64(i+1)
		default:
			m.key = cold
			m.val = vbase | uint64(i+1)
			cold++
		}
		if !m.del {
			hist.add(m.key, m.val)
		}
		return m
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
		Buckets:  c.cfg.Buckets,
		MaxBatch: 16,
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
	// model tracks the acked state exactly: the writer acks in submission
	// order with at most one operation in flight.
	hist := newReadHistory()
	model := make(map[uint64]uint64, c.cfg.HotKeys)
	err = seedKeys(addr, c.cfg.HotKeys, deadline, func(i int) (uint64, uint64) {
		k, v := uint64(i), 0xC0FFEE<<32|uint64(i)
		hist.add(k, v)
		model[k] = v
		return k, v
	})
	if err != nil {
		return err
	}
	w := newAckWriter()

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
	go w.run(addr, c.cfg.WritesPerRound, deadline,
		churn(rand.New(rand.NewSource(c.cfg.Seed^int64(round))), c.cfg.HotKeys, round, hist),
		func(m mutation, _ string) {
			if m.del {
				delete(model, m.key)
			} else {
				model[m.key] = m.val
			}
		},
		// Power cut: the op in flight is the crash's one maybe; all earlier
		// ops are acked (synchronous stream).
		srv.Halted)

	crashed := false
	switch scen {
	case "steady":
	case "crash-mid", "crash-late":
		if !waitShardDown(srv, deadline) {
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
		} else if !mapsEqual(final, model) {
			c.fail(round, scen, fmt.Errorf("final state diverged from acked model: %d keys vs %d", len(final), len(model)))
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
		if err := c.verifyRecovered(round, scen, dev, model, w.pending, deadline); err != nil {
			return err
		}
	}
	c.cfg.Log("explore: readers round %d done: acked=%d reads=%d", round, w.ackedN.Load(), c.stats.Reads.Load())
	return nil
}

// reader is one hammering connection: GETs across the hot band with a
// SCAN burst mixed in, each observation checked against the submitted
// history. Refusals (-BUSY, a halting shard) and connection drops are
// part of the script — the reader backs off and keeps hammering until
// the round stops it.
func (c *readersCampaign) reader(round int, scen, addr string, seed int64, stop chan struct{}, hist *readHistory) {
	rng := rand.New(rand.NewSource(seed))
	sess := client.NewSession(addr, opTimeout)
	defer sess.Close()
	// scripted reports whether err is part of the script — a refusal or a
	// dropped connection: back off, keep hammering. A malformed reply is
	// a violation and ends the reader.
	scripted := func(what string, err error) bool {
		if errors.Is(err, client.ErrProtocol) {
			c.fail(round, scen, fmt.Errorf("bad %s reply: %w", what, err))
			return false
		}
		time.Sleep(retryPause(err))
		return true
	}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if i%24 == 23 {
			pairs, err := sess.Scan(8 + rng.Intn(40))
			if err != nil {
				if !scripted("SCAN", err) {
					return
				}
				continue
			}
			for _, p := range pairs {
				if !hist.knows(p.Key, p.Val) {
					c.fail(round, scen, fmt.Errorf("SCAN observed torn or phantom pair %d=%d", p.Key, p.Val))
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
		v, found, err := sess.Get(k)
		switch {
		case err != nil:
			if !scripted("GET", err) {
				return
			}
		case !found:
			// Absence is always legitimate: deleted, or never written.
			c.stats.Reads.Add(1)
		case !hist.knows(k, v):
			c.fail(round, scen, fmt.Errorf("GET %d observed torn or uncommitted value %d", k, v))
			return
		default:
			c.stats.Reads.Add(1)
		}
	}
}

// verifyRecovered reboots the crashed device — reattach runs recovery —
// and checks the durability half of the contract: every key's recovered
// value is its last acked value or the single in-flight operation's,
// absence only where the last relevant operation was a delete (or the
// key was never acked), and the recovered server serves reads again,
// lock-free.
func (c *readersCampaign) verifyRecovered(round int, scen string, dev *pmem.Device, model map[uint64]uint64, pending *mutation, deadline time.Time) error {
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
	// (model is their exact fold), and pending is the single maybe.
	keys := make(map[uint64]bool, len(model)+len(got)+1)
	for k := range model {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	if pending != nil {
		keys[pending.key] = true
	}
	for k := range keys {
		mv, acked := model[k]
		gv, present := got[k]
		pend := pending != nil && pending.key == k
		switch {
		case present && acked && gv == mv:
		case present && pend && !pending.del && gv == pending.val:
		case present:
			c.fail(round, scen, fmt.Errorf("recovered %d=%d is neither the acked value (%d, acked=%v) nor in-flight", k, gv, mv, acked))
		case !acked: // never acked a SET: absence is the ground state
		case pend && pending.del: // in-flight delete may have committed
		default:
			c.fail(round, scen, fmt.Errorf("acked write %d=%d lost after power cut", k, mv))
		}
	}

	// The rebooted server must serve the read path again — through the
	// seqlock when the campaign runs lock-free (nothing here may commit
	// concurrently, so every bracket is stable on the first spin).
	sess := client.NewSession(ln.Addr().String(), opTimeout)
	defer sess.Close()
	for k := uint64(0); k < uint64(c.cfg.HotKeys); k++ {
		v, found, err := sess.Get(k)
		if err != nil {
			return err
		}
		if want, present := got[k]; found != present || v != want {
			c.fail(round, scen, fmt.Errorf("recovered server GET %d = (%d, found=%v), want %d (present=%v)", k, v, found, want, present))
		}
	}
	if lf, _, _ := srv.ReadPathStats(); lf == 0 {
		c.fail(round, scen, fmt.Errorf("recovered server served no lock-free reads"))
	}
	return nil
}
