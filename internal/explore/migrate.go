// Migration crash campaign: exhaustive power-cut exploration of a
// scripted 1->2 shard split. Where explore.Run enumerates crash points
// of a single-pool workload, RunMigrate enumerates every device op of
// the whole migration protocol — manifest publication, per-batch target
// copies, the source delete+cursor-advance transaction, and the config
// commit — across BOTH pools, cutting power at each, then recursively
// cutting power again during the recovery-and-resume that follows, to
// the configured depth. Terminal states must always resume to a
// completed migration with every key exactly once at its new home: zero
// lost, zero duplicated, zero torn.
package explore

import (
	"fmt"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/obs"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// MigrateConfig parameterizes one migration crash campaign.
type MigrateConfig struct {
	// Keys seeds this many keys on the source shard (default 12).
	Keys int
	// Buckets is each store's directory size (default 8; small so a
	// single batch spans a meaningful key population).
	Buckets int
	// BatchBuckets is the migration batch width (default 4, giving a
	// multi-batch migration whose cursor genuinely advances).
	BatchBuckets int
	// Depth is how many nested cuts may land during recovery+resume on
	// top of the initial cut (default 2; negative for none).
	Depth int
	// Workers shards top-level crash points (default GOMAXPROCS, cap 8).
	Workers int
	// PoolSize per pool (default 4 MiB).
	PoolSize int
	// MaxViolations stops the run early (default 8).
	MaxViolations int
	// MaxPoints, when positive, bounds how many top-level crash points
	// are explored (the first MaxPoints of the op stream) — the CI
	// budget knob. Zero means all of them.
	MaxPoints int
	// Registry, when set, receives live explore_* counters.
	Registry *obs.Registry
	// Stats, when set, is updated live; otherwise allocated internally.
	Stats *Stats
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

func (c MigrateConfig) withDefaults() MigrateConfig {
	if c.Keys <= 0 {
		c.Keys = 12
	}
	if c.Buckets <= 0 {
		c.Buckets = 8
	}
	if c.BatchBuckets <= 0 {
		c.BatchBuckets = 4
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 4 << 20
	}
	return c
}

// MigrateResult summarizes a completed migration campaign.
type MigrateResult struct {
	// TotalOps is the device-op length of the uninterrupted migration
	// (summed across both pools) — the top-level crash-point universe.
	TotalOps uint64
	// ExploredPoints is how many of those were actually enumerated
	// (TotalOps unless MaxPoints trimmed the universe).
	ExploredPoints uint64
	// Keys echoes the seeded key count.
	Keys int
	// Stats is the final counter snapshot source.
	Stats *Stats
	// Violations holds up to MaxViolations failures, with flight dumps.
	Violations []Violation
}

// RunMigrate explores every crash point of the scripted shard split. As
// with Run, the returned error covers infrastructure failures only;
// safety violations land in MigrateResult.Violations.
func RunMigrate(cfg MigrateConfig) (*MigrateResult, error) {
	cfg = cfg.withDefaults()
	g, imgs, err := newMigration(cfg)
	if err != nil {
		return nil, err
	}
	s := &sweep[migrated]{sc: g, pristine: imgs, depth: cfg.Depth, workers: cfg.Workers,
		limit: uint64(cfg.MaxPoints), maxViolations: cfg.MaxViolations, log: cfg.Log,
		registry: cfg.Registry, stats: cfg.Stats}
	if err := s.start(); err != nil {
		return nil, err
	}
	s.log("explore: migrate keys=%d buckets=%d batch=%d ops=%d points=%d depth=%d workers=%d",
		cfg.Keys, cfg.Buckets, cfg.BatchBuckets, s.total, s.points(), s.depth, s.workers)
	s.run(s.point)
	viols, err := s.finish()
	if err != nil {
		return nil, err
	}
	return &MigrateResult{TotalOps: s.total, ExploredPoints: s.points(), Keys: cfg.Keys, Stats: s.stats, Violations: viols}, nil
}

// migration is the migrate script: forward and reboot are the same
// resume, because a rebooted server drives the split from whatever
// durable state the two pools hold to completion, and the pristine run
// simply finds it not yet started.
type migration struct {
	cfg   MigrateConfig
	model map[uint64]uint64
}

// migrated is what a completed resume holds: both pools and stores.
type migrated struct {
	pools [2]*pool.Pool
	kvs   [2]*workloads.KVStore
}

// newMigration formats both pools, seeds the source store, commits the
// one-shard config, and snapshots the images every replay starts from.
func newMigration(cfg MigrateConfig) (*migration, [][]byte, error) {
	g := &migration{cfg: cfg, model: make(map[uint64]uint64, cfg.Keys)}
	var kvs [2]*workloads.KVStore
	var pools [2]*pool.Pool
	for i := range kvs {
		p, err := createPool(cfg.PoolSize)
		if err != nil {
			return nil, nil, err
		}
		if kvs[i], err = workloads.NewKVStore(corundumeng.Wrap(p), cfg.Buckets); err != nil {
			return nil, nil, fmt.Errorf("explore: building store %d: %w", i, err)
		}
		pools[i] = p
	}
	if err := kvs[0].WriteConfig(1, 1); err != nil {
		return nil, nil, fmt.Errorf("explore: committing seed config: %w", err)
	}
	for i := 0; i < cfg.Keys; i++ {
		// Golden-ratio keys spread across buckets and across the 2-shard
		// split, so batches genuinely move some keys and keep others.
		k := uint64(i)*0x9E3779B97F4A7C15 + 11
		v := k*7 + 1
		if err := kvs[0].Put(k, v); err != nil {
			return nil, nil, fmt.Errorf("explore: seeding key %d: %w", i, err)
		}
		g.model[k] = v
	}
	return g, [][]byte{pools[0].Device().DurableSnapshot(), pools[1].Device().DurableSnapshot()}, nil
}

func (g *migration) forward(mc *machine, open func(), _ *int) error {
	open()
	_, err := g.resume(mc)
	return err
}

func (g *migration) reboot(mc *machine) (migrated, error) { return g.resume(mc) }

// resume attaches both pools and boots them through
// workloads.RecoverBoot, the decision corundum-server makes at boot, then
// stands in for the operator and the server's migration driver: it
// issues the 1->2 split when none was ever published, and runs the
// Resharder to completion synchronously. Injected crashes propagate as
// panics for the sweep to contain.
func (g *migration) resume(mc *machine) (st migrated, err error) {
	for i, d := range mc.devs {
		if st.pools[i], err = pool.Attach(d); err != nil {
			return st, fmt.Errorf("attach shard %d: %w", i, err)
		}
	}
	for i, p := range st.pools {
		if st.kvs[i], err = workloads.AttachKVStore(corundumeng.Wrap(p)); err != nil {
			return st, fmt.Errorf("attach store %d: %w", i, err)
		}
	}
	v, err := workloads.RecoverBoot(st.kvs[:], g.cfg.BatchBuckets, workloads.NopCoordinator{})
	rs := v.Resharder
	if err == nil && v.Action == workloads.BootCommitted && v.N == 1 {
		// Not started (or cut before the manifest became durable): the
		// operator's RESHARD 2.
		if rs, err = workloads.NewResharder(st.kvs[:], 1, 2, v.Epoch+1,
			g.cfg.BatchBuckets, workloads.NopCoordinator{}); err == nil {
			err = rs.Init()
		}
	}
	if err == nil && rs != nil {
		_, err = rs.Run(nil, nil)
	}
	if err != nil {
		return st, fmt.Errorf("boot and resume: %w", err)
	}
	return st, nil
}

// verify is the full safety contract of a completed split: committed
// config, cleared manifest, allocator consistency, store integrity, and
// every key exactly once at its 2-shard home with its original value.
func (g *migration) verify(st migrated, _ int) error {
	for i, p := range st.pools {
		if err := p.CheckConsistency(); err != nil {
			return fmt.Errorf("allocator inconsistent on shard %d: %w", i, err)
		}
	}
	kv0 := st.kvs[0]
	if cfgShards, cfgEpoch, err := kv0.ReadConfig(); err != nil || cfgShards != 2 {
		return fmt.Errorf("config after resume = (%d shards, epoch %d, %v), want 2 shards", cfgShards, cfgEpoch, err)
	}
	if mf, err := kv0.ReadManifest(); err != nil || mf != nil {
		return fmt.Errorf("manifest not cleared after completed migration (m=%v err=%v)", mf, err)
	}
	got := make(map[uint64]uint64, len(g.model))
	for shard, kv := range st.kvs {
		if _, err := kv.VerifyIntegrity(); err != nil {
			return fmt.Errorf("store %d integrity: %w", shard, err)
		}
		var walkErr error
		err := kv.ScanRange(0, kv.Buckets(), func(k, v uint64) bool {
			if home := workloads.ShardFor(k, 2); home != shard {
				walkErr = fmt.Errorf("key %d found on shard %d, belongs to %d", k, shard, home)
				return false
			}
			if _, dup := got[k]; dup {
				walkErr = fmt.Errorf("key %d present on both shards", k)
				return false
			}
			got[k] = v
			return true
		})
		if err == nil {
			err = walkErr
		}
		if err != nil {
			return err
		}
	}
	if len(got) != len(g.model) {
		return fmt.Errorf("%d keys after migration, want %d", len(got), len(g.model))
	}
	for k, v := range g.model {
		if gv, ok := got[k]; !ok || gv != v {
			return fmt.Errorf("key %d = (%d, %v) after migration, want %d", k, gv, ok, v)
		}
	}
	return nil
}
