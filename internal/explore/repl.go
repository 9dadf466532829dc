// Replication chaos campaign: seeded rounds of live primary→replica
// pairs under a client write stream, each round injecting one failure
// scenario — link cuts, a replica power cut mid-apply, a power cut
// mid-bootstrap, a primary power cut, or a promotion under load — then
// driving the pair back to convergence and checking the replication
// contract: every acknowledged write on the surviving epoch is present
// with its exact value, the deposed epoch's acknowledged writes survive
// as a clean prefix of ack order (a hole followed by a survivor means
// frames were applied out of order), and primary and replica converge
// byte-exact. Unlike the migrate campaign this is not an image-replay
// enumeration: replication spans two processes' worth of goroutines and
// a TCP link, so the campaign runs the real servers and injects crashes
// with the device fault injector while real traffic is in flight.
package explore

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"corundum/internal/obs"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
)

// replScenarios is the round rotation. The order front-loads coverage
// so trimmed runs (short tests, race builds) still cross the link-cut,
// replica-crash, and failover paths.
var replScenarios = []string{
	"linkcut",
	"replica-crash",
	"promote",
	"bootstrap-crash",
	"primary-crash",
}

// ReplConfig parameterizes one replication chaos campaign.
type ReplConfig struct {
	// Rounds is how many chaos rounds to run; round r uses scenario
	// replScenarios[r % 5] (default 5 — one full rotation).
	Rounds int
	// WritesPerRound is the client write stream length (default 200).
	WritesPerRound int
	// SeedKeys are loaded before the replica attaches, so every round
	// exercises snapshot bootstrap (default 120).
	SeedKeys int
	// Shards is the shard count of each node (default 2).
	Shards int
	// Buckets per shard store (default 64).
	Buckets int
	// PoolSize per shard pool (default 8 MiB).
	PoolSize int
	// Heartbeat is the replication heartbeat (default 30ms; short so
	// link-state machinery runs many cycles per round).
	Heartbeat time.Duration
	// Seed drives all randomness; equal seeds replay equal campaigns
	// up to goroutine scheduling (default 1).
	Seed int64
	// RoundTimeout bounds one round end to end (default 90s — sized
	// for race-detector slowdown; a healthy round takes ~2s).
	RoundTimeout time.Duration
	// Registry, when set, receives live repl_chaos_* counters.
	Registry *obs.Registry
	// Stats, when set, is updated live; otherwise allocated internally.
	Stats *ReplStats
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (c ReplConfig) withDefaults() ReplConfig {
	if c.Rounds <= 0 {
		c.Rounds = len(replScenarios)
	}
	if c.WritesPerRound <= 0 {
		c.WritesPerRound = 200
	}
	if c.SeedKeys <= 0 {
		c.SeedKeys = 120
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Buckets <= 0 {
		c.Buckets = 64
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 8 << 20
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 30 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 90 * time.Second
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// ReplStats are live campaign counters, safe for concurrent reads.
type ReplStats struct {
	// Rounds counts completed chaos rounds.
	Rounds atomic.Uint64
	// Acked counts client writes acknowledged across all rounds.
	Acked atomic.Uint64
	// LinkCuts counts forced replication-link drops.
	LinkCuts atomic.Uint64
	// ReplicaCrashes counts replica power cuts injected mid-apply.
	ReplicaCrashes atomic.Uint64
	// BootstrapCrashes counts replica power cuts injected mid-bootstrap.
	BootstrapCrashes atomic.Uint64
	// PrimaryCrashes counts primary power cuts under load.
	PrimaryCrashes atomic.Uint64
	// Promotes counts failover promotions under load.
	Promotes atomic.Uint64
	// Reboots counts crash→reattach→rejoin cycles (either role).
	Reboots atomic.Uint64
	// Violations counts contract failures.
	Violations atomic.Uint64
}

func registerReplMetrics(reg *obs.Registry, st *ReplStats) {
	reg.CounterFunc("repl_chaos_rounds_total", "Chaos rounds completed.", nil, st.Rounds.Load)
	reg.CounterFunc("repl_chaos_acked_total", "Client writes acknowledged.", nil, st.Acked.Load)
	reg.CounterFunc("repl_chaos_link_cuts_total", "Replication links cut.", nil, st.LinkCuts.Load)
	reg.CounterFunc("repl_chaos_replica_crashes_total", "Replica power cuts mid-apply.", nil, st.ReplicaCrashes.Load)
	reg.CounterFunc("repl_chaos_bootstrap_crashes_total", "Replica power cuts mid-bootstrap.", nil, st.BootstrapCrashes.Load)
	reg.CounterFunc("repl_chaos_primary_crashes_total", "Primary power cuts under load.", nil, st.PrimaryCrashes.Load)
	reg.CounterFunc("repl_chaos_promotes_total", "Failover promotions under load.", nil, st.Promotes.Load)
	reg.CounterFunc("repl_chaos_reboots_total", "Crash/reattach/rejoin cycles.", nil, st.Reboots.Load)
	reg.CounterFunc("repl_chaos_violations_total", "Replication contract violations.", nil, st.Violations.Load)
}

// ReplViolation is one replication-contract failure.
type ReplViolation struct {
	// Round is the chaos round (0-based).
	Round int
	// Scenario names the injected failure.
	Scenario string
	// Err names the violated invariant.
	Err error
}

func (v ReplViolation) String() string {
	return fmt.Sprintf("round %d (%s): %v", v.Round, v.Scenario, v.Err)
}

// ReplResult summarizes a completed replication chaos campaign.
type ReplResult struct {
	// Rounds echoes the configured round count.
	Rounds int
	// Stats is the final counter snapshot source.
	Stats *ReplStats
	// Violations holds every contract failure.
	Violations []ReplViolation
}

// replNode is one server of the pair, with everything needed to power-cut
// and reboot it in place: the devices survive the crash, the addresses
// are re-bound so the peer and the client reconnect to the same place.
type replNode struct {
	name       string
	devs       []*pmem.Device
	srv        *server.Server
	clientAddr string
	replAddr   string
}

type replCampaign struct {
	cfg   ReplConfig
	stats *ReplStats
	viols []ReplViolation
}

// RunRepl runs the chaos campaign. The returned error covers
// infrastructure failures only (listen/attach errors, a wedged round);
// contract failures land in ReplResult.Violations.
func RunRepl(cfg ReplConfig) (*ReplResult, error) {
	cfg = cfg.withDefaults()
	c := &replCampaign{cfg: cfg, stats: cfg.Stats}
	if c.stats == nil {
		c.stats = &ReplStats{}
	}
	if cfg.Registry != nil {
		registerReplMetrics(cfg.Registry, c.stats)
	}
	for r := 0; r < cfg.Rounds; r++ {
		scen := replScenarios[r%len(replScenarios)]
		cfg.Log("explore: repl round %d/%d scenario=%s", r+1, cfg.Rounds, scen)
		if err := c.runRound(r, scen); err != nil {
			return nil, fmt.Errorf("explore: repl round %d (%s): %w", r, scen, err)
		}
		c.stats.Rounds.Add(1)
	}
	return &ReplResult{Rounds: cfg.Rounds, Stats: c.stats, Violations: c.viols}, nil
}

func (c *replCampaign) fail(round int, scen string, err error) {
	c.stats.Violations.Add(1)
	v := ReplViolation{Round: round, Scenario: scen, Err: err}
	c.viols = append(c.viols, v)
	c.cfg.Log("explore: REPL VIOLATION %s", v)
}

func (c *replCampaign) opts() server.Options {
	return server.Options{
		Buckets:       c.cfg.Buckets,
		MaxBatch:      8,
		ReplHeartbeat: c.cfg.Heartbeat,
	}
}

// buildNode creates a fresh node over brand-new crash-tracking pools,
// with both its client listener and its replication listener bound.
// When primaryAddr is set the node joins as a replica BEFORE the source
// is enabled, so the replication listener parks until a promotion. The
// preJoin hook (may be nil) runs right before the join — it is how the
// bootstrap-crash scenario arms a power cut that lands mid-snapshot.
func (c *replCampaign) buildNode(name, primaryAddr string, preJoin func(*replNode)) (*replNode, error) {
	n := &replNode{name: name}
	pools := make([]*pool.Pool, c.cfg.Shards)
	for i := range pools {
		p, err := pool.Create("", pool.Config{
			Size:     c.cfg.PoolSize,
			Journals: 8,
			Mem:      pmem.Options{TrackCrash: true},
		})
		if err != nil {
			return nil, fmt.Errorf("create pool %d: %w", i, err)
		}
		pools[i] = p
		n.devs = append(n.devs, p.Device())
	}
	srv, err := server.NewSharded(pools, c.opts())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if preJoin != nil {
		n.srv = srv
		preJoin(n)
	}
	if primaryAddr != "" {
		if err := srv.ReplicaOf(primaryAddr); err != nil {
			return nil, fmt.Errorf("%s: replicaof: %w", name, err)
		}
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := srv.EnableReplicationSource(rln); err != nil {
		return nil, fmt.Errorf("%s: enable source: %w", name, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	n.srv = srv
	n.clientAddr = ln.Addr().String()
	n.replAddr = rln.Addr().String()
	return n, nil
}

// listenSame re-binds an address the node held before its crash. The old
// listener closes inside srv.Close, but the kernel may lag a moment.
func listenSame(addr string) (net.Listener, error) {
	var err error
	for i := 0; i < 200; i++ {
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			return ln, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, fmt.Errorf("rebind %s: %w", addr, err)
}

// reboot models the machine cycling power after an injected crash: the
// server is torn down, every device reverts to its durable image, the
// pools are re-attached (running recovery), and a new server comes up on
// the SAME addresses — as a replica of primaryAddr when set, as a
// standalone primary otherwise. The old pools are abandoned, not closed:
// their devices are poisoned.
func (c *replCampaign) reboot(n *replNode, primaryAddr string) error {
	_ = n.srv.Close()
	for _, d := range n.devs {
		d.Crash()
	}
	pools, errs := server.AttachShards(n.devs)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: reattach shard %d: %w", n.name, i, err)
		}
	}
	srv, err := server.NewSharded(pools, c.opts())
	if err != nil {
		return fmt.Errorf("%s: reopen: %w", n.name, err)
	}
	if primaryAddr != "" {
		if err := srv.ReplicaOf(primaryAddr); err != nil {
			return fmt.Errorf("%s: rejoin: %w", n.name, err)
		}
	}
	rln, err := listenSame(n.replAddr)
	if err != nil {
		return err
	}
	if err := srv.EnableReplicationSource(rln); err != nil {
		return fmt.Errorf("%s: re-enable source: %w", n.name, err)
	}
	ln, err := listenSame(n.clientAddr)
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	n.srv = srv
	c.stats.Reboots.Add(1)
	return nil
}

// ackRec is one acknowledged client mutation, in ack order, tagged with
// the address that acknowledged it — after a failover that tag separates
// the deposed epoch's writes from the surviving epoch's.
type ackRec struct {
	del      bool
	key, val uint64
	target   string
}

func replSeedKey(i int) uint64 { return uint64(0x5EED)<<40 | uint64(i) }
func replKey(r, i int) uint64  { return (uint64(r)+1)<<32 | uint64(i) + 1 }
func replVal(k uint64) uint64  { return k*0x9E3779B97F4A7C15 + 5 }

// replLog is what one round's write stream leaves for verify: the ack
// log in ack order, and every SET attempted, acked or not. The writer
// goroutine owns it until the writer's done channel closes.
type replLog struct {
	acks []ackRec
	sent map[uint64]uint64
	live []uint64 // this round's acked, not-yet-deleted keys
}

// next builds the stream: fresh-key SETs, plus (when dels is true) an
// occasional DEL of a key this round already got acknowledged — each key
// is written once and deleted at most once, so the expected final state
// is a pure function of the ack log.
func (l *replLog) next(rng *rand.Rand, round int, dels bool) func(i int) mutation {
	return func(i int) mutation {
		if dels && len(l.live) > 0 && rng.Intn(8) == 0 {
			vi := rng.Intn(len(l.live))
			key := l.live[vi]
			l.live = append(l.live[:vi], l.live[vi+1:]...)
			return mutation{del: true, key: key}
		}
		key := replKey(round, i)
		l.sent[key] = replVal(key)
		return mutation{key: key, val: l.sent[key]}
	}
}

func (l *replLog) onAck(m mutation, acker string) {
	l.acks = append(l.acks, ackRec{del: m.del, key: m.key, val: m.val, target: acker})
	if !m.del {
		l.live = append(l.live, m.key)
	}
}

// waitShardDown polls until some shard of srv reports a crash-induced
// failure — how a supervisor notices the injected power cut fired.
func waitShardDown(srv *server.Server, deadline time.Time) bool {
	for {
		for i := 0; i < srv.Shards(); i++ {
			if srv.ShardDown(i) != nil {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runRound builds a fresh primary/replica pair, seeds the primary, opens
// the write stream, injects the scenario, waits for convergence, and
// verifies the contract.
func (c *replCampaign) runRound(round int, scen string) error {
	deadline := time.Now().Add(c.cfg.RoundTimeout)
	rng := rand.New(rand.NewSource(c.cfg.Seed + int64(round)*7919))

	a, err := c.buildNode("primary", "", nil)
	if err != nil {
		return err
	}
	defer func() { _ = a.srv.Close() }()

	seeds := make(map[uint64]uint64, c.cfg.SeedKeys)
	err = seedKeys(a.clientAddr, c.cfg.SeedKeys, deadline, func(i int) (uint64, uint64) {
		k := replSeedKey(i)
		seeds[k] = replVal(k)
		return k, seeds[k]
	})
	if err != nil {
		return err
	}

	// The replica attaches AFTER the seed load, so its first sync is a
	// real snapshot bootstrap every round. The bootstrap-crash round arms
	// its power cut before the node even dials.
	var preJoin func(*replNode)
	if scen == "bootstrap-crash" {
		preJoin = func(n *replNode) {
			d := n.devs[rng.Intn(len(n.devs))]
			d.CrashAt(d.OpCount() + uint64(100+rng.Intn(500)))
		}
	}
	b, err := c.buildNode("replica", a.replAddr, preJoin)
	if err != nil {
		return err
	}
	defer func() { _ = b.srv.Close() }()

	w, log := newAckWriter(), &replLog{sent: map[uint64]uint64{}}
	n := c.cfg.WritesPerRound
	var victim *replNode
	switch scen {
	case "replica-crash":
		victim = b
	case "primary-crash":
		victim = a
	}
	if victim != nil {
		w.armAt = int64(n / 3)
		w.arm = func() {
			d := victim.devs[rng.Intn(len(victim.devs))]
			d.CrashAt(d.OpCount() + uint64(100+rng.Intn(700)))
		}
	}
	go w.run(a.clientAddr, n, deadline,
		log.next(rand.New(rand.NewSource(c.cfg.Seed^int64(round))), round, scen != "promote"),
		log.onAck, nil)

	promoted := false
	switch scen {
	case "linkcut":
		kicks := 2 + rng.Intn(3)
		for i := 0; i < kicks; i++ {
			waitAcks(w, int64((i+1)*n/(kicks+1)), deadline)
			b.srv.ReplKickLink()
			c.stats.LinkCuts.Add(1)
		}
	case "replica-crash":
		if !waitShardDown(b.srv, deadline) {
			c.fail(round, scen, fmt.Errorf("replica power cut never fired"))
			break
		}
		c.stats.ReplicaCrashes.Add(1)
		if err := c.reboot(b, a.replAddr); err != nil {
			return err
		}
	case "bootstrap-crash":
		if !waitShardDown(b.srv, deadline) {
			c.fail(round, scen, fmt.Errorf("bootstrap power cut never fired"))
			break
		}
		c.stats.BootstrapCrashes.Add(1)
		if err := c.reboot(b, a.replAddr); err != nil {
			return err
		}
	case "primary-crash":
		if !waitShardDown(a.srv, deadline) {
			c.fail(round, scen, fmt.Errorf("primary power cut never fired"))
			break
		}
		c.stats.PrimaryCrashes.Add(1)
		// The machine reboots into the same role: acked writes were
		// committed (group commit acks after durability), so it resumes
		// the stream from its durable cursor and the replica re-syncs.
		if err := c.reboot(a, ""); err != nil {
			return err
		}
	case "promote":
		waitAcks(w, int64(n/3), deadline)
		// Promote refuses while the bootstrap is still loading; a real
		// operator retries until the replica is serving.
		var promErr error
		for {
			// A replica that has not finished its first bootstrap holds no
			// keyspace to fail over to; an operator promotes one that has.
			if st := b.srv.ReplicaStatus(); st.FullSyncs == 0 || st.Syncing {
				promErr = fmt.Errorf("replica has not bootstrapped yet")
			} else if promErr = b.srv.Promote(); promErr == nil {
				break
			}
			if time.Now().After(deadline) {
				c.fail(round, scen, fmt.Errorf("promote never succeeded: %w", promErr))
				<-w.done
				return nil
			}
			time.Sleep(10 * time.Millisecond)
		}
		c.stats.Promotes.Add(1)
		promoted = true
		// Demote the deposed primary under the new one. Its epoch is
		// stale, so the handshake forces a full resync — every write it
		// acknowledged after the promotion is (correctly) discarded. The
		// writer finds the new primary the way any client does: by
		// following the demoted node's -READONLY redirect.
		if err := a.srv.ReplicaOf(b.replAddr); err != nil {
			return fmt.Errorf("demote old primary: %w", err)
		}
	default:
		return fmt.Errorf("unknown scenario %q", scen)
	}

	<-w.done
	c.stats.Acked.Add(uint64(w.ackedN.Load()))
	if w.err != nil {
		c.fail(round, scen, w.err)
		return nil
	}

	primary, replica := a, b
	if promoted {
		primary, replica = b, a
	}
	final, err := converge(primary.clientAddr, replica.clientAddr, deadline)
	if err != nil {
		c.fail(round, scen, err)
		return nil
	}
	c.verify(round, scen, log, seeds, final, promoted, a.clientAddr, b.clientAddr)
	lag := replica.srv.ReplLag()
	c.cfg.Log("explore: repl round %d done: acked=%d keys=%d lag=%d frames", round, w.ackedN.Load(), len(final), lag.Frames)
	return nil
}

// verify checks the round's contract against the converged keyspace.
func (c *replCampaign) verify(round int, scen string, w *replLog, seeds, final map[uint64]uint64, promoted bool, addrA, addrB string) {
	// Seeds replicate through the snapshot before any promotion can
	// succeed, so they must survive every scenario.
	for k, v := range seeds {
		if fv, ok := final[k]; !ok || fv != v {
			c.fail(round, scen, fmt.Errorf("seed key %d = (%d,%v), want %d", k, fv, ok, v))
			return
		}
	}
	expect := make(map[uint64]uint64, len(seeds)+len(w.acks))
	for k, v := range seeds {
		expect[k] = v
	}
	if !promoted {
		// Single epoch throughout: the ack log replays into the exact
		// expected state — zero acked-write loss, acked DELs stay deleted.
		// (Keys are written once and deleted at most once, so replay
		// order is trivial.)
		for _, a := range w.acks {
			if a.del {
				delete(expect, a.key)
			} else {
				expect[a.key] = a.val
			}
		}
		for k, v := range expect {
			if fv, ok := final[k]; !ok || fv != v {
				c.fail(round, scen, fmt.Errorf("acked write %d = (%d,%v) after recovery, want %d", k, fv, ok, v))
				return
			}
		}
		for _, a := range w.acks {
			if !a.del {
				continue
			}
			if fv, ok := final[a.key]; ok {
				c.fail(round, scen, fmt.Errorf("acked DEL %d resurrected with %d", a.key, fv))
				return
			}
		}
	} else {
		// Two epochs. Writes acknowledged by the NEW primary must all
		// survive; writes acknowledged by the deposed one survive exactly
		// as the replicated prefix of its ack order — a missing write
		// followed by a surviving one would mean the stream applied out
		// of order.
		holeAt := -1
		for idx, a := range w.acks {
			fv, ok := final[a.key]
			switch a.target {
			case addrB:
				if !ok || fv != a.val {
					c.fail(round, scen, fmt.Errorf("write %d acked by new primary = (%d,%v), want %d", a.key, fv, ok, a.val))
					return
				}
			case addrA:
				if ok && fv != a.val {
					c.fail(round, scen, fmt.Errorf("old-epoch write %d corrupted: %d, want %d", a.key, fv, a.val))
					return
				}
				if !ok && holeAt < 0 {
					holeAt = idx
				}
				if ok && holeAt >= 0 {
					c.fail(round, scen, fmt.Errorf("old-epoch write %d (ack #%d) survived after hole at ack #%d: replication applied out of order", a.key, idx, holeAt))
					return
				}
			}
		}
	}
	// No phantoms: anything beyond the expectation must be a write we
	// actually sent (acked or not), carrying its exact value.
	for k, fv := range final {
		if _, ok := expect[k]; ok {
			continue
		}
		sv, sent := w.sent[k]
		if !sent {
			c.fail(round, scen, fmt.Errorf("phantom key %d = %d never written this round", k, fv))
			return
		}
		if fv != sv {
			c.fail(round, scen, fmt.Errorf("key %d torn: %d, want %d", k, fv, sv))
			return
		}
	}
}
