// Replication chaos campaign: seeded rounds of live primary→replica
// pairs under a client write stream and readers on the replica, each
// round injecting one failure scenario — link cuts, a replica power cut
// mid-apply, a power cut mid-bootstrap, a primary power cut, or a
// promotion under load — then driving the pair back to byte-exact
// convergence. What the writer and the replica's readers observed, and
// the converged keyspace, is judged by histcheck (DESIGN §5.3): every
// acknowledged write of the surviving epoch present with its exact value,
// the deposed epoch's acknowledged writes surviving as a clean prefix of
// ack order (a hole followed by a survivor means frames were applied out
// of order), replica reads that never go backwards, and no phantom or
// torn values. Unlike the migrate campaign this is not an image-replay
// enumeration: replication spans two processes' worth of goroutines and
// a TCP link, so the campaign runs the real servers and injects crashes
// with the device fault injector while real traffic is in flight.
package explore

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

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

// Each node of a pair has replShards shards; the replication heartbeat
// is short so link-state machinery runs many cycles per round. replKeys
// are seeded before a round's traffic: the snapshot a bootstrap copies.
const (
	replShards    = 2
	replHeartbeat = 30 * time.Millisecond
	replKeys      = 120
)

// ReplStats are live campaign counters, safe for concurrent reads.
type ReplStats struct {
	NetStats
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
}

type replCampaign struct {
	cfg   NetConfig
	stats *ReplStats
}

// RunRepl runs the chaos campaign. The returned error covers
// infrastructure failures only (listen/attach errors, a wedged round);
// contract failures land in NetResult.Violations.
func RunRepl(cfg NetConfig) (*NetResult[ReplStats], error) {
	c := &replCampaign{stats: &ReplStats{}}
	c.cfg = cfg.withDefaults(NetConfig{Rounds: 2 * len(replScenarios), WritesPerRound: 200})
	return runRounds("repl", c.cfg, c.stats, &c.stats.NetStats, replScenarios, c.play)
}

// newHost brings up one node of the pair.
func (c *replCampaign) newHost(name, primaryAddr string, preJoin func(*host)) (*host, error) {
	opts := server.Options{Buckets: 64, MaxBatch: 8, ReplHeartbeat: replHeartbeat}
	return newHost(name, replShards, 8<<20, opts, true, primaryAddr, preJoin)
}

func replSeedKey(i int) uint64 { return uint64(0x5EED)<<40 | uint64(i) }
func replKey(r, i int) uint64  { return (uint64(r)+1)<<32 | uint64(i) + 1 }
func replVal(k uint64) uint64  { return k*0x9E3779B97F4A7C15 + 5 }

// replStream builds a round's write stream: fresh-key SETs, plus (when
// dels is true) an occasional DEL of a key this round already got
// acknowledged — each key is written once and deleted at most once. The
// writer goroutine owns it.
func replStream(rng *rand.Rand, round int, dels bool) func(i int) mutation {
	var live []uint64 // this round's acked, not-yet-deleted keys
	var prev mutation
	return func(i int) mutation {
		if i > 0 && !prev.del { // the writer asks for mutation i once i-1 is acked
			live = append(live, prev.key)
		}
		if dels && len(live) > 0 && rng.Intn(8) == 0 {
			vi := rng.Intn(len(live))
			prev = mutation{del: true, key: live[vi]}
			live = append(live[:vi], live[vi+1:]...)
		} else {
			key := replKey(round, i)
			prev = mutation{key: key, val: replVal(key)}
		}
		return prev
	}
}

// play builds a fresh primary/replica pair, seeds the primary, opens the
// write stream and the replica's readers, injects the scenario, and waits
// for convergence.
func (c *replCampaign) play(r *round) error {
	rng := rand.New(rand.NewSource(c.cfg.Seed + int64(r.i)*7919))
	a, err := c.newHost("primary", "", nil)
	if err != nil {
		return err
	}
	defer func() { _ = a.srv.Close() }()
	r.rec.Promote(a.clientAddr, 1)
	if err := r.seed(a.clientAddr, replKeys, func(i int) mutation {
		k := replSeedKey(i)
		return mutation{key: k, val: replVal(k)}
	}); err != nil {
		return err
	}

	// The replica attaches AFTER the seed load, so its first sync is a
	// real snapshot bootstrap every round. The bootstrap-crash round arms
	// its power cut before the node even dials.
	var preJoin func(*host)
	if r.scen == "bootstrap-crash" {
		preJoin = func(n *host) {
			d := n.devs[rng.Intn(len(n.devs))]
			d.CrashAt(d.OpCount() + uint64(100+rng.Intn(500)))
		}
	}
	b, err := c.newHost("replica", a.replAddr, preJoin)
	if err != nil {
		return err
	}
	defer func() { _ = b.srv.Close() }()
	n := c.cfg.WritesPerRound
	stopReaders := r.startReaders(b.clientAddr, func(rng *rand.Rand) uint64 {
		if rng.Intn(2) == 0 {
			return replSeedKey(rng.Intn(replKeys))
		}
		return replKey(r.i, rng.Intn(n))
	})
	defer stopReaders()

	// The power-cut scenarios: which node loses power, and what counts it.
	cut := map[string]struct {
		victim *host
		n      *atomic.Uint64
	}{
		"replica-crash":   {b, &c.stats.ReplicaCrashes},
		"bootstrap-crash": {b, &c.stats.BootstrapCrashes},
		"primary-crash":   {a, &c.stats.PrimaryCrashes},
	}[r.scen]
	w := newAckWriter(r)
	if cut.victim != nil && preJoin == nil {
		w.armAt = int64(n / 3)
		w.arm = func() {
			d := cut.victim.devs[rng.Intn(len(cut.victim.devs))]
			d.CrashAt(d.OpCount() + uint64(100+rng.Intn(700)))
		}
	}
	go w.run(a.clientAddr, n, replStream(rand.New(rand.NewSource(c.cfg.Seed^int64(r.i))), r.i, r.scen != "promote"), nil)

	primary, replica := a, b
	switch r.scen {
	case "linkcut":
		kicks := 2 + rng.Intn(3)
		for i := 0; i < kicks; i++ {
			waitAcks(w, int64((i+1)*n/(kicks+1)))
			b.srv.ReplKickLink()
			c.stats.LinkCuts.Add(1)
		}
	case "replica-crash", "bootstrap-crash", "primary-crash":
		if !waitShardDown(cut.victim.srv, r.deadline) {
			r.fail(fmt.Errorf("%s power cut never fired", r.scen))
			break
		}
		cut.n.Add(1)
		// A rebooted primary comes back in the same role: acked writes were
		// committed (group commit acks after durability), so it resumes the
		// stream from its durable cursor and the replica re-syncs.
		upstream := a.replAddr
		if cut.victim == a {
			upstream = ""
		}
		if err := cut.victim.reboot(r, upstream); err != nil {
			return err
		}
	case "promote":
		waitAcks(w, int64(n/3))
		if err := c.promote(r, b); err != nil {
			r.fail(err)
			<-w.done
			return nil
		}
		c.stats.Promotes.Add(1)
		primary, replica = b, a
		// Demote the deposed primary under the new one. Its epoch is
		// stale, so the handshake forces a full resync — every write it
		// acknowledged after the promotion is (correctly) discarded. The
		// writer finds the new primary the way any client does: by
		// following the demoted node's -READONLY redirect.
		if err := a.srv.ReplicaOf(b.replAddr); err != nil {
			return fmt.Errorf("demote old primary: %w", err)
		}
	default:
		return fmt.Errorf("unknown scenario %q", r.scen)
	}

	<-w.done
	c.stats.Acked.Add(uint64(w.ackedN.Load()))
	if w.err != nil {
		r.fail(w.err)
		return nil
	}
	inv := r.rec.Now()
	final, err := converge(primary.clientAddr, replica.clientAddr, r.deadline)
	if err != nil {
		r.fail(err)
		return nil
	}
	r.rec.Keyspace(0, primary.clientAddr, final, inv)
	lag := replica.srv.ReplLag()
	c.cfg.Log("explore: repl round %d done: acked=%d keys=%d lag=%d frames", r.i, w.ackedN.Load(), len(final), lag.Frames)
	return nil
}

// promote fails the pair over to the replica b once it has bootstrapped —
// a replica that has not finished its first bootstrap holds no keyspace
// to fail over to, and Promote refuses while one is loading; an operator
// retries until the replica is serving. The replica's whole keyspace is
// read just before, so the history pins what the new primary must keep.
func (c *replCampaign) promote(r *round, b *host) error {
	for {
		var err error
		if st := b.srv.ReplicaStatus(); st.FullSyncs == 0 || st.Syncing {
			err = fmt.Errorf("replica has not bootstrapped yet")
		} else if err = r.keyspace(b.clientAddr); err == nil {
			if err = b.srv.Promote(); err == nil {
				r.rec.Promote(b.clientAddr, 2)
				return nil
			}
		}
		if time.Now().After(r.deadline) {
			return fmt.Errorf("promote never succeeded: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
