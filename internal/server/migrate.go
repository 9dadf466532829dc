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
// that while connections keep getting answers — and installs what the
// boot decision (workloads.RecoverBoot) found in the pools: a migration,
// or a RESTORE, in flight when the last process died.

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

	rs, err := workloads.NewResharder(liveStores(shards), st.n, newN, cfgEpoch+1,
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

// adoptPersistentState makes the boot decision over the opened pools
// (workloads.RecoverBoot) and installs it, once from NewSharded before
// traffic: an interrupted migration's Resharder becomes the routing view
// (NewSharded then starts its driver); otherwise the committed layout
// must be the one opened, or serving would scatter the keyspace.
func (s *Server) adoptPersistentState() error {
	st := s.st()
	v, err := workloads.RecoverBoot(liveStores(st.shards), s.opts.MigrateBatchBuckets, shardCoord{st.shards})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.restoreWiped.Store(v.Action == workloads.BootWipe)
	if v.Resharder != nil {
		s.state.Store(&routeState{shards: st.shards, n: int(v.Manifest.OldN), rs: v.Resharder})
		return nil
	}
	if v.N != 0 && v.N != st.n {
		return fmt.Errorf("server: pools committed to %d shards (epoch %d) but %d were opened; open the committed layout (server.Boot reads it from pool 0)",
			v.N, v.Epoch, st.n)
	}
	return nil
}

// liveStores lists each shard's store, nil where the shard is down: the
// cluster as the Resharder and the boot decision see it.
func liveStores(shards []*shard) []*workloads.KVStore {
	stores := make([]*workloads.KVStore, len(shards))
	for i, sh := range shards {
		if sh.down() == nil {
			stores[i] = sh.kv
		}
	}
	return stores
}
