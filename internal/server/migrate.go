package server

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"corundum/internal/obs"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// This file is the serving side of crash-safe online resharding: it
// wires workloads.Resharder (the batch-by-batch migration engine, all of
// whose state is persistent) into the server's locks, batchers, and
// routing view. The division of labor: the Resharder knows how to move
// keys without losing one across a power cut; this file knows how to do
// that while connections keep getting answers — and how a freshly booted
// server recognizes, from the pools alone, that a migration (or a
// RESTORE) was in flight when the last process died.

// shardCoord adapts the server's per-shard locks and group-commit
// batchers to the Resharder's Coordinator interface. Read and Write are
// the same lock sections every verified read and batch commit runs in —
// a power cut inside a migration section fails that shard and releases
// its lock, exactly as one inside a commit does; Barrier drains the
// shard's batcher queue, so a scan after the barrier sees every mutation
// accepted before the fence went up.
type shardCoord struct{ shards []*shard }

func (c shardCoord) Read(i int, fn func() error) error {
	sh := c.shards[i]
	return sh.lock.read(sh.fail, fn)
}

func (c shardCoord) Write(i int, fn func() error) error {
	sh := c.shards[i]
	return sh.lock.write(sh.fail, fn)
}

func (c shardCoord) Barrier(i int) error {
	b := c.shards[i].b
	if b == nil {
		return nil
	}
	return b.Barrier()
}

// Reshard starts a live migration of the keyspace from the current shard
// count to newN, serving throughout. It returns once the migration is
// durably published (manifests on every source shard) and the background
// driver is moving keys; progress is visible in INFO/STATS and the
// migration commits on its own. Keys mid-move answer -MOVED (retryable);
// everything else serves normally.
func (s *Server) Reshard(newN int) error {
	if newN < 1 {
		return fmt.Errorf("reshard: shard count must be at least 1, got %d", newN)
	}
	if err := s.replicaRefusal(); err != nil {
		// A replica's layout follows its own config; resharding it while
		// frames route by that layout is fine — but the operator drives
		// topology from the primary, so refuse with the redirect.
		return err
	}
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if s.halted.Load() {
		return s.failure()
	}
	if s.adminOp != "" {
		return fmt.Errorf("%w: %s in progress", pool.ErrBusy, s.adminOp)
	}
	st := s.st()
	if st.rs != nil {
		old, target := st.rs.Shape()
		return fmt.Errorf("reshard: a %d->%d migration is already in progress", old, target)
	}
	if newN == st.n {
		return fmt.Errorf("reshard: already serving %d shards", newN)
	}
	// Sources lose keys and targets gain them; all must be fully writable.
	for i := 0; i < st.n; i++ {
		if err := st.shards[i].writable(); err != nil {
			return fmt.Errorf("reshard: source shard %d: %w", i, err)
		}
	}
	_, cfgEpoch, err := st.shards[0].kv.ReadConfig()
	if err != nil {
		return fmt.Errorf("reshard: reading cluster config: %w", err)
	}

	shards := append([]*shard(nil), st.shards...)
	for i := len(shards); i < newN; i++ {
		sh, err := s.openTargetShard(i)
		if err != nil {
			return err
		}
		shards = append(shards, sh)
	}
	for i := 0; i < newN; i++ {
		if err := shards[i].writable(); err != nil {
			return fmt.Errorf("reshard: target shard %d: %w", i, err)
		}
	}

	stores := make([]*workloads.KVStore, len(shards))
	for i, sh := range shards {
		if sh.down() == nil {
			stores[i] = sh.kv
		}
	}
	rs, err := workloads.NewResharder(stores, st.n, newN, cfgEpoch+1,
		s.opts.MigrateBatchBuckets, shardCoord{shards})
	if err != nil {
		return err
	}

	// Swap the routing view first: with every cursor at zero the Resharder
	// routes identically to the old layout, so traffic never sees an
	// inconsistent moment. Then publish the manifests — the durable "a
	// migration exists" record — and only then start moving keys.
	s.state.Store(&routeState{shards: shards, n: st.n, rs: rs})
	if err := rs.Init(); err != nil {
		s.state.Store(&routeState{shards: st.shards, n: st.n})
		return fmt.Errorf("reshard: publishing migration: %w", err)
	}
	s.migLastErr = nil // holding migMu
	s.startDriverLocked(rs)
	return nil
}

// installOwnershipVet points sh's batcher at its permanent admission
// check: a mutation commits on sh only if the routing view current at
// commit time says sh owns the key; otherwise it is refused with
// MovedError before it reaches the store. During a migration that is
// the Resharder's CheckWrite (owner by cursor, plus the in-flight batch
// window). With none active it is the plain hash route — which is what
// catches an op that was routed to a source shard just before the
// migration committed and reaches the committer just after, and any
// write aimed at a shard a merge retired. The vet reads the routing view
// on every call, so swapping the view is what changes it. The vet also
// refuses on the replica role: the connection handler checks the role
// before it routes, so an op routed as the node was being demoted would
// otherwise commit behind the bootstrap's drain, after its wipe.
func (s *Server) installOwnershipVet(sh *shard) {
	id := sh.id
	sh.b.SetFence(func(op workloads.Op) error {
		if err := s.replicaRefusal(); err != nil {
			return err
		}
		st := s.st()
		if st.rs != nil {
			return st.rs.CheckWrite(id, op.Key)
		}
		if o := workloads.ShardFor(op.Key, st.n); o != id {
			return workloads.MovedError{Shard: o}
		}
		return nil
	})
}

// openTargetShard produces the shard that will serve id after a grow: a
// shard retired by an earlier merge rejoins as-is (it is live and empty),
// otherwise a new pool is opened via Options.ShardOpener and admitted
// through the same checks NewSharded runs at boot.
func (s *Server) openTargetShard(id int) (*shard, error) {
	s.allMu.Lock()
	for _, sh := range s.all {
		if sh.id == id {
			s.allMu.Unlock()
			if err := sh.writable(); err != nil {
				return nil, fmt.Errorf("reshard: retired shard %d cannot rejoin: %w", id, err)
			}
			return sh, nil
		}
	}
	s.allMu.Unlock()

	opener := s.opts.ShardOpener
	if opener == nil {
		opener = s.defaultShardOpener()
	}
	p, err := opener(id)
	if err != nil {
		return nil, fmt.Errorf("reshard: opening pool for shard %d: %w", id, err)
	}
	sh := &shard{id: id, pool: p}
	if err := s.initShard(sh); err != nil {
		p.Close()
		return nil, fmt.Errorf("reshard: initializing shard %d: %w", id, err)
	}
	sh.b.sizes.Store(s.m.batchSizes)
	s.m.registerShardGauges(sh)
	p.EnableMetricsLabeled(s.m.reg, obs.Labels{"shard": strconv.Itoa(id)})
	// An attached change stream carries every shard's commits; a shard
	// born mid-life must publish like the boot-time ones.
	s.replMu.Lock()
	s.attachShardLocked(sh)
	s.replMu.Unlock()
	s.allMu.Lock()
	s.all = append(s.all, sh)
	s.ownedPools = append(s.ownedPools, p)
	s.allMu.Unlock()
	return sh, nil
}

// defaultShardOpener creates in-memory pools with shard 0's geometry —
// the right default for tests and benchmarks. corundum-server overrides
// it with a file-backed opener.
func (s *Server) defaultShardOpener() func(int) (*pool.Pool, error) {
	geom := s.st().shards[0].pool
	return func(int) (*pool.Pool, error) {
		return pool.Create("", pool.Config{
			Size:     geom.Device().Size(),
			Journals: geom.Journals(),
		})
	}
}

// startDriverLocked launches the background goroutine that steps the
// migration. Callers hold migMu.
func (s *Server) startDriverLocked(rs *workloads.Resharder) {
	stop := make(chan struct{})
	s.migStop = stop
	s.migWG.Add(1)
	go s.driveMigration(rs, stop)
}

// driveMigration runs the migration to completion (or to a clean stop at
// a batch boundary — the durable-cursor checkpoint SIGTERM relies on).
// On completion it commits the new layout and swaps the routing view; on
// error it parks the migration (resumable at next boot) and records the
// reason for INFO.
func (s *Server) driveMigration(rs *workloads.Resharder, stop <-chan struct{}) {
	defer s.migWG.Done()
	defer func() {
		// A panic out of a pool mid-step is an injected power cut (tests'
		// stand-in for real power loss, which would kill the process).
		// Halt the whole server: the migration spans shards, and the
		// manifests make the interrupted move resumable at next boot.
		if r := recover(); r != nil {
			err := fmt.Errorf("%w: migration crashed: %v", ErrServerHalted, r)
			s.setMigErr(err)
			s.haltAll(err)
		}
	}()
	var throttle func()
	if d := s.opts.MigrationThrottle; d > 0 {
		throttle = func() {
			select {
			case <-stop:
			case <-time.After(d):
			}
		}
	}
	completed, err := rs.Run(stop, throttle)
	if err != nil {
		s.setMigErr(err)
		if errors.Is(err, ErrServerHalted) {
			// A lock section of the migration caught the panic and failed
			// its shard; the migration still spans shards, so halt as above.
			s.haltAll(err)
		}
		return
	}
	if completed {
		s.finishMigration(rs)
	}
}

// finishMigration swaps the routing view to the committed layout; every
// batcher's ownership vet follows the view, so from here a write still
// aimed at a source shard is answered -MOVED to its new owner instead of
// committing where nobody will look. The durable commit (config write,
// manifest clears) already happened inside rs.Run; this is the
// in-memory half. Shards a merge retired stay in s.all — empty, live,
// and ready to rejoin on a later grow — until Close stops them.
func (s *Server) finishMigration(rs *workloads.Resharder) {
	_, newN := rs.Shape()
	old := s.st()
	s.state.Store(&routeState{shards: old.shards[:newN], n: newN})
}

// resumeMigration restarts the driver for a migration adopted from
// persistent state at boot (see adoptPersistentState).
func (s *Server) resumeMigration() {
	st := s.st()
	if st.rs == nil {
		return
	}
	s.migMu.Lock()
	defer s.migMu.Unlock()
	s.startDriverLocked(st.rs)
}

// stopMigration stops the driver and waits for it to park at a batch
// boundary, where the manifest cursor is durable. Close calls this
// before stopping the batchers (the driver barriers into them).
func (s *Server) stopMigration() {
	s.migMu.Lock()
	stop := s.migStop
	s.migStop = nil
	s.migMu.Unlock()
	if stop != nil {
		close(stop)
	}
	s.migWG.Wait()
}

func (s *Server) setMigErr(err error) {
	s.migMu.Lock()
	s.migLastErr = err
	s.migMu.Unlock()
}

// MigrationError reports why the background migration driver parked, or
// nil. A parked migration is resumable: its manifests are intact, so a
// restart picks it up where it stopped.
func (s *Server) MigrationError() error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return s.migLastErr
}

// adoptPersistentState reconciles the server's in-memory view with
// whatever sharding state the pools persist. Called once from NewSharded,
// before traffic:
//
//   - A restore marker (a crashed RESTORE left pools half-written) wipes
//     every store back to empty — loudly, never serving a silent blend of
//     old and restored data.
//   - Manifests at or below the config epoch are committed-migration
//     leftovers; they are cleared.
//   - Manifests ahead of the config epoch are an interrupted migration:
//     a Resharder is attached to its durable cursors and the routing view
//     adopts the mid-migration layout (resumeMigration then restarts the
//     driver).
//   - With no manifests, the committed config must agree with the opened
//     pool count — a mismatch means the operator opened the wrong layout,
//     and serving it would scatter the keyspace.
//   - A fresh deployment (no config anywhere) commits {n, epoch 1}.
func (s *Server) adoptPersistentState() error {
	st := s.st()
	sh0 := st.shards[0]
	var (
		cfgShards int
		cfgEpoch  uint64
	)
	if sh0.kv != nil && sh0.down() == nil {
		var err error
		cfgShards, cfgEpoch, err = sh0.kv.ReadConfig()
		if err != nil {
			return fmt.Errorf("server: cluster config on shard 0: %w", err)
		}
	}

	var (
		active       []*workloads.Manifest
		activeShards []int
		restore      *workloads.Manifest
	)
	for _, sh := range st.shards {
		if sh.kv == nil || sh.down() != nil {
			continue
		}
		m, err := sh.kv.ReadManifest()
		if err != nil {
			return fmt.Errorf("server: migration manifest on shard %d: %w", sh.id, err)
		}
		if m == nil {
			continue
		}
		if m.Epoch <= cfgEpoch {
			// The config write is the commit point, so this manifest is a
			// leftover from a migration that already committed (the crash hit
			// during cleanup). Finish the cleanup.
			if sh.pool.Writable() == nil {
				if err := sh.kv.ClearManifest(); err != nil {
					return fmt.Errorf("server: clearing stale manifest on shard %d: %w", sh.id, err)
				}
			}
			continue
		}
		if m.Kind == workloads.ManifestRestore {
			restore = m
			continue
		}
		active = append(active, m)
		activeShards = append(activeShards, sh.id)
	}

	if restore != nil {
		if len(active) > 0 {
			return errors.New("server: pools hold both a restore marker and a reshard manifest; refusing to guess")
		}
		// A RESTORE died between wiping the stores and committing: the pools
		// hold an unusable blend. Wipe back to empty and say so, rather than
		// silently serving half a snapshot.
		for _, sh := range st.shards {
			if sh.kv == nil || sh.down() != nil {
				continue
			}
			if err := sh.pool.Writable(); err != nil {
				return fmt.Errorf("server: shard %d needs wiping after a crashed RESTORE but is not writable: %w", sh.id, err)
			}
			if err := wipeStore(sh.kv); err != nil {
				return fmt.Errorf("server: wiping shard %d after a crashed RESTORE: %w", sh.id, err)
			}
			// The same marker also covers a crashed replication bootstrap:
			// zero the cursor so the wiped (empty) store cannot claim to be
			// caught up to a stream position it no longer reflects.
			if err := sh.kv.WriteReplCursor(0, 0); err != nil {
				return fmt.Errorf("server: zeroing replication cursor on shard %d: %w", sh.id, err)
			}
		}
		if err := sh0.kv.ClearManifest(); err != nil {
			return fmt.Errorf("server: clearing restore marker: %w", err)
		}
		s.restoreWiped.Store(true)
	}

	var m0 *workloads.Manifest
	if len(active) > 0 {
		m0 = active[0]
		for i, m := range active[1:] {
			if m.Epoch != m0.Epoch || m.OldN != m0.OldN || m.NewN != m0.NewN {
				return fmt.Errorf("server: shards %d and %d disagree about the active migration (%d->%d@%d vs %d->%d@%d)",
					activeShards[0], activeShards[i+1], m0.OldN, m0.NewN, m0.Epoch, m.OldN, m.NewN, m.Epoch)
			}
		}
		if cfgShards != 0 && cfgShards != int(m0.OldN) {
			return fmt.Errorf("server: active migration moves %d->%d shards but the committed config says %d",
				m0.OldN, m0.NewN, cfgShards)
		}
	}
	switch need := committedShards(cfgShards, cfgEpoch, m0); {
	case m0 == nil && need == 0:
		if sh0.kv != nil && sh0.down() == nil && sh0.pool.Writable() == nil {
			if err := sh0.kv.WriteConfig(st.n, 1); err != nil {
				return fmt.Errorf("server: committing initial cluster config: %w", err)
			}
		}
		return nil
	case m0 == nil:
		if need != st.n {
			return fmt.Errorf("server: pools committed to %d shards (epoch %d) but %d were opened; open the committed layout (server.Boot reads it from pool 0)",
				need, cfgEpoch, st.n)
		}
		return nil
	case len(st.shards) < need:
		return fmt.Errorf("server: active %d->%d migration needs %d pools, only %d were opened",
			m0.OldN, m0.NewN, need, len(st.shards))
	}

	oldN, newN := int(m0.OldN), int(m0.NewN)
	stores := make([]*workloads.KVStore, len(st.shards))
	for i, sh := range st.shards {
		if sh.down() == nil {
			stores[i] = sh.kv
		}
	}
	rs, err := workloads.NewResharder(stores, oldN, newN, m0.Epoch,
		s.opts.MigrateBatchBuckets, shardCoord{st.shards})
	if err != nil {
		return err
	}
	if err := rs.Attach(); err != nil {
		return err
	}
	s.state.Store(&routeState{shards: st.shards, n: oldN, rs: rs})
	return nil
}

// committedShards is the one rule for how many pools a deployment's
// persistent state commits it to: the cluster config's shard count, or
// max(OldN, NewN) while m — a migration manifest, or nil — is ahead of
// the config epoch, since the config write is a migration's commit point
// and its resume needs every source and target pool open. 0 means
// nothing is committed: a fresh deployment, where -shards decides. Boot
// applies it to pool 0's config and manifest to choose which pools to
// open; adoptPersistentState applies it to check what was opened.
func committedShards(cfgShards int, cfgEpoch uint64, m *workloads.Manifest) int {
	if m != nil && m.Epoch > cfgEpoch {
		return max(int(m.OldN), int(m.NewN))
	}
	return cfgShards
}

// wipeStore deletes every key, in bounded failure-atomic chunks. Used to
// sanitize pools after a crashed RESTORE and to clear the keyspace
// before applying a snapshot.
func wipeStore(kv *workloads.KVStore) error {
	for {
		var keys []uint64
		err := kv.ScanRange(0, kv.Buckets(), func(k, _ uint64) bool {
			keys = append(keys, k)
			return len(keys) < 1024
		})
		if err != nil {
			return err
		}
		if len(keys) == 0 {
			return nil
		}
		ops := make([]workloads.Op, len(keys))
		for i, k := range keys {
			ops[i] = workloads.Op{Del: true, Key: k}
		}
		if _, err := kv.Apply(ops); err != nil {
			return err
		}
	}
}
