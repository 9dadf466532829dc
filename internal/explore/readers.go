// Reader-vs-crash campaign: seeded rounds of a live single-shard server
// whose readers hammer GET and SCAN over real connections — through the
// seqlock lock-free read path by default — while a client write stream
// churns the store and injected power cuts land mid-commit. Each crash
// round ends in a reboot on the same address, and the rebooted server
// must recover and serve lock-free reads again. Like the replication
// campaign this is not an image-replay enumeration: the seqlock bracket
// only exists between live goroutines, so the campaign runs the real
// server and injects crashes with the device op-count trigger while
// readers are in flight. What the readers and the writer observed, the
// reboot's reads included, is judged by histcheck (DESIGN §5.3): no torn
// or phantom value, no read of a commit a power cut then rolled back, no
// acked write lost.
package explore

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"corundum/internal/client"
	"corundum/internal/server"
)

// readerScenarios is the round rotation. Crash coverage is front-loaded
// so trimmed runs (short tests, race builds) still cross a power cut;
// the steady round adds a quiet whole-keyspace read no crash blurs.
var readerScenarios = []string{
	"crash-mid",
	"steady",
	"crash-late",
}

// readerKeys are seeded before a round's traffic: the hot band the
// write stream overwrites and deletes and the readers hammer.
const readerKeys = 48

// ReadersStats are live campaign counters, safe for concurrent reads.
type ReadersStats struct {
	NetStats
	// Crashes counts injected power cuts that fired.
	Crashes atomic.Uint64
	// LockFreeReads sums the servers' seqlock-path read counters.
	LockFreeReads atomic.Uint64
	// ReadRetries sums the servers' bracket-conflict retry counters.
	ReadRetries atomic.Uint64
	// Fallbacks sums the servers' locked-fallback counters.
	Fallbacks atomic.Uint64
}

// churn is the readers campaign's write stream: overwrites and deletes
// in the hot band plus inserts of brand-new cold keys, so entry blocks
// free and recycle under the readers (what makes a stale chain pointer
// dangerous). Values are unique per round.
func churn(rng *rand.Rand, hotKeys, round int) func(i int) mutation {
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
		return m
	}
}

type readersCampaign struct {
	cfg   NetConfig
	stats *ReadersStats
}

// RunReaders runs the reader-vs-crash campaign. The returned error
// covers infrastructure failures only (listen/attach errors, a wedged
// round); contract failures land in NetResult.Violations.
func RunReaders(cfg NetConfig) (*NetResult[ReadersStats], error) {
	c := &readersCampaign{stats: &ReadersStats{}}
	c.cfg = cfg.withDefaults(NetConfig{Rounds: 2 * len(readerScenarios), WritesPerRound: 400})
	return runRounds("readers", c.cfg, c.stats, &c.stats.NetStats, readerScenarios, c.play)
}

// harvest folds a server's read-path counters into the campaign stats.
func (c *readersCampaign) harvest(srv *server.Server) {
	lf, retries, fb := srv.ReadPathStats()
	c.stats.LockFreeReads.Add(lf)
	c.stats.ReadRetries.Add(retries)
	c.stats.Fallbacks.Add(fb)
}

func (c *readersCampaign) play(r *round) error {
	rng := rand.New(rand.NewSource(c.cfg.Seed ^ int64(r.i)*0x9E3779B97F4A7C1))
	// 128 buckets is small on purpose: chains grow, and lock-free walks
	// cross several entries.
	n, err := newHost("server", 1, 16<<20, server.Options{Buckets: 128, MaxBatch: 16}, false, "", nil)
	if err != nil {
		return err
	}
	defer func() { _ = n.srv.Close() }()
	dev, addr := n.devs[0], n.clientAddr

	// Seed the hot band so readers observe values from the first GET and
	// every SCAN is non-trivial.
	err = r.seed(addr, readerKeys, func(i int) mutation { return mutation{key: uint64(i), val: 0xC0FFEE<<32 | uint64(i)} })
	if err != nil {
		return err
	}

	// Readers hammer for the whole round, crash window included: the
	// point is what they observe WHILE the cut lands.
	stopReaders := r.startReaders(addr, func(rng *rand.Rand) uint64 {
		if rng.Intn(8) == 0 {
			return 1<<20 + uint64(rng.Intn(c.cfg.WritesPerRound/4+1))
		}
		return uint64(rng.Intn(readerKeys))
	})
	w := newAckWriter(r)
	switch r.scen {
	case "crash-mid":
		w.armAt = int64(c.cfg.WritesPerRound / 4)
	case "crash-late":
		w.armAt = int64(2 * c.cfg.WritesPerRound / 3)
	}
	if w.armAt > 0 {
		w.arm = func() { dev.CrashAt(dev.OpCount() + uint64(50+rng.Intn(400))) }
	}
	// A power cut halts the server and ends the stream, the op in flight
	// left without a reply (synchronous stream: all earlier ops acked).
	go w.run(addr, c.cfg.WritesPerRound, churn(rand.New(rand.NewSource(c.cfg.Seed^int64(r.i))), readerKeys, r.i),
		n.srv.Halted)

	crashed := false
	if w.armAt > 0 {
		if !waitShardDown(n.srv, r.deadline) {
			r.fail(fmt.Errorf("power cut never fired"))
		} else {
			c.stats.Crashes.Add(1)
			crashed = true
		}
	}
	<-w.done
	c.stats.Acked.Add(uint64(w.ackedN.Load()))
	if w.err != nil {
		r.fail(w.err)
		stopReaders()
		return nil
	}
	if !crashed {
		// Steady round: with every write acked and the stream quiet, the
		// keyspace is pinned to the acked history exactly.
		if err := r.keyspace(addr); err != nil {
			r.fail(fmt.Errorf("final scan: %w", err))
		}
	}

	// Quiesce every reader BEFORE the power cut replays: the crash replay
	// rewrites the whole device image outside the atomic word discipline,
	// exactly like the machine losing power.
	stopReaders()
	c.harvest(n.srv)
	if crashed {
		if err := n.reboot(r, ""); err != nil {
			r.fail(fmt.Errorf("reboot after power cut: %w", err))
			return nil
		}
		if err := c.recovered(r, n); err != nil {
			return err
		}
	}
	c.cfg.Log("explore: readers round %d done: acked=%d reads=%d", r.i, w.ackedN.Load(), c.stats.Reads.Load())
	return nil
}

// recovered reads the rebooted server's whole keyspace and GETs every hot
// key into the history; those GETs must have run through the seqlock
// bracket (nothing commits concurrently, so every bracket is stable on
// the first spin).
func (c *readersCampaign) recovered(r *round, n *host) error {
	defer c.harvest(n.srv)
	if err := r.keyspace(n.clientAddr); err != nil {
		r.fail(fmt.Errorf("post-recovery scan: %w", err))
		return nil
	}
	sess := client.NewSession(n.clientAddr, opTimeout)
	defer sess.Close()
	for k := uint64(0); k < uint64(readerKeys); k++ {
		inv := r.rec.Now()
		v, found, err := sess.Get(k)
		if err != nil {
			return err
		}
		r.rec.Read(0, n.clientAddr, k, v, found, inv)
	}
	if lf, _, _ := n.srv.ReadPathStats(); lf == 0 {
		r.fail(fmt.Errorf("recovered server served no lock-free reads"))
	}
	return nil
}
