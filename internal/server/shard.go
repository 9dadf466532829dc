package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/obs"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// A shard is one independent slice of the server's keyspace: its own
// pool (file or device, journal set, allocator arenas), its own KVStore,
// its own group-commit batcher, and its own reader/writer lock. Shards
// share no persistent state, which is what lets their transactions —
// and their crash recoveries — proceed in parallel, the multi-pool
// scaling argument of the paper's Fig. 10–11 applied to serving.
type shard struct {
	id   int
	pool *pool.Pool         // nil when the shard never opened
	kv   *workloads.KVStore // nil when down from the start
	b    *Batcher           // nil when down from the start

	// lock is this shard's store-level reader/writer lock: the shard's
	// committer applies batches under Lock, and the fallback read path
	// runs GET/SCAN under RLock. The fused commit sequence (storeLock)
	// lets the primary read path skip the lock entirely: lock-free
	// readers validate against the sequence instead of holding RLock
	// (see readpath.go). The KVStore itself is not internally
	// synchronized.
	lock storeLock

	// view is the pool's lock-free read window for the seqlock read
	// path; nil when the pool never opened (reads then always take the
	// locked fallback).
	view *pool.ReadView

	downMu  sync.Mutex
	downErr error
}

// markDown records why this shard stopped serving; only the first
// reason sticks.
func (sh *shard) markDown(err error) {
	sh.downMu.Lock()
	if sh.downErr == nil {
		sh.downErr = err
	}
	sh.downMu.Unlock()
}

// down reports why this shard cannot serve its keyspace slice, or nil.
// A shard that failed dynamically (its pool died under a commit or a
// read) is down the instant its batcher is, even before the failure
// callback has recorded the reason.
func (sh *shard) down() error {
	sh.downMu.Lock()
	err := sh.downErr
	sh.downMu.Unlock()
	if err != nil {
		return err
	}
	if sh.b != nil {
		if ferr := sh.b.failed(); ferr != nil {
			return ferr
		}
	}
	return nil
}

// writable gates one shard's slice of a mutation run: a down shard and a
// degraded pool both refuse up front. The per-store gating in the
// transaction path is the backstop for races with a concurrent scrub
// that degrades the pool mid-batch.
func (sh *shard) writable() error {
	if err := sh.down(); err != nil {
		return err
	}
	return sh.pool.Writable()
}

// shape reports the shard store's live keys and physical buckets (zero
// when the store never attached).
func (sh *shard) shape() (keys, buckets uint64) {
	if sh.kv == nil {
		return 0, 0
	}
	return sh.kv.Shape()
}

// degraded reports whether this shard serves less than full service:
// read-only over a degraded pool, or nothing at all (down).
func (sh *shard) degraded() bool {
	return sh.down() != nil || (sh.pool != nil && sh.pool.Degraded())
}

// fail records a pool failure observed outside the commit path (a read
// transaction panicking on an injected crash) against this shard.
func (sh *shard) fail(err error) {
	if sh.b != nil {
		sh.b.fail(err) // triggers the shard-failure callback exactly once
		return
	}
	sh.markDown(err)
}

// New builds a server over one already-open pool — the single-shard
// configuration. Pool recovery has run inside pool.Open/Attach before
// this point; New additionally verifies heap consistency and refuses to
// serve a damaged pool — traffic is never accepted against inconsistent
// state. The exception is a pool already in degraded mode (opened via
// pool.AttachRepair after unrepairable media damage): its damage is
// known and quarantined, so the server comes up read-only — GET/SCAN
// work, SET/DEL answer -READONLY — rather than refusing service
// entirely. A fresh pool (no root) gets a new KVStore; otherwise the
// existing store is attached.
func New(p *pool.Pool, opts Options) (*Server, error) {
	return NewSharded([]*pool.Pool{p}, opts)
}

// NewSharded builds a server over N independent shard pools, routing the
// keyspace across them by hash (workloads.ShardFor). A nil entry is a
// shard that failed to open or recover (see AttachShards/OpenShards):
// the server still comes up and serves every other shard, while the
// down shard's keyspace slice answers -READONLY. With a single shard,
// any per-shard refusal is fatal — exactly New's contract; with more,
// a damaged shard degrades instead of vetoing its siblings. It is an
// error for every shard to be down.
func NewSharded(pools []*pool.Pool, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if len(pools) == 0 {
		return nil, errors.New("server: at least one shard pool is required")
	}
	s := &Server{
		opts:   opts,
		start:  time.Now(),
		conns:  make(map[net.Conn]struct{}),
		tracer: obs.NewTracer(opts.TraceRing, opts.TraceSample),
	}
	shards := make([]*shard, len(pools))
	down := 0
	for i, p := range pools {
		sh := &shard{id: i, pool: p}
		shards[i] = sh
		if p == nil {
			if len(pools) == 1 {
				return nil, errors.New("server: pool is nil")
			}
			sh.markDown(fmt.Errorf("%w: shard %d is down: pool failed to open", pool.ErrReadOnly, i))
			down++
			continue
		}
		if err := s.initShard(sh); err != nil {
			if len(pools) == 1 {
				return nil, err
			}
			sh.markDown(fmt.Errorf("%w: shard %d is down: %v", pool.ErrReadOnly, i, err))
			down++
		}
	}
	if down == len(shards) {
		return nil, fmt.Errorf("server: all %d shards are down", down)
	}
	s.downShards.Store(int64(down))
	s.all = shards
	s.state.Store(&routeState{shards: shards, n: len(shards)})
	// Adopt whatever sharding state the pools persist: write the initial
	// cluster config on fresh deployments, wipe pools a crashed RESTORE
	// left half-written, clear stale manifests, and resume an interrupted
	// migration (see migrate.go).
	if err := s.adoptPersistentState(); err != nil {
		return nil, err
	}
	s.m = newServerMetrics(s)
	for _, sh := range s.st().shards {
		if sh.b != nil {
			sh.b.sizes.Store(s.m.batchSizes)
		}
	}
	s.resumeMigration()
	return s, nil
}

// initShard runs the single-pool admission checks (New's contract)
// against one shard and wires up its store and committer.
func (s *Server) initShard(sh *shard) error {
	p := sh.pool
	if p.Degraded() {
		if p.RootOff() == 0 {
			return fmt.Errorf("server: pool is degraded (%s) and holds no store to serve", p.DegradedReason())
		}
	} else if err := p.CheckConsistency(); err != nil {
		return fmt.Errorf("server: pool failed consistency check, refusing to serve: %w", err)
	}
	ep := corundumeng.Wrap(p)
	if p.RootOff() == 0 {
		created, err := workloads.NewKVStore(ep, s.opts.Buckets)
		if err != nil {
			return fmt.Errorf("server: initializing store: %w", err)
		}
		sh.kv = created
	} else {
		attached, err := workloads.AttachKVStore(ep)
		if err != nil {
			return fmt.Errorf("server: attaching store: %w", err)
		}
		sh.kv = attached
	}
	sh.b = newBatcher(sh.kv, &sh.lock, p.Device(), s.opts.MaxBatch,
		func(err error) { s.onShardFailure(sh, err) })
	s.installOwnershipVet(sh)
	if v, err := p.ReadView(); err == nil {
		sh.view = v
	}
	// Store setup above needed a journal slot unconditionally; only live
	// traffic gets the bounded wait.
	if s.opts.BusyTimeout > 0 {
		p.SetAcquireTimeout(s.opts.BusyTimeout)
	}
	return nil
}

// onShardFailure runs once per shard, from whichever goroutine first
// observed that shard's pool dying (an injected crash in tests). The
// shard is fenced off — its keyspace slice answers -READONLY — while
// every other shard keeps serving. Only when the last live shard goes
// down does the server halt as a whole.
func (s *Server) onShardFailure(sh *shard, err error) {
	sh.markDown(fmt.Errorf("%w: shard %d is down: %v", pool.ErrReadOnly, sh.id, err))
	if s.downShards.Add(1) >= int64(len(s.st().shards)) {
		s.haltAll(err)
	}
}

// haltAll is the whole-server failure path: stop accepting and tear
// down connections so clients see the failure promptly instead of
// timing out; pending Submits are unblocked by each batcher's dead
// channel.
func (s *Server) haltAll(err error) {
	s.failMu.Lock()
	if s.failErr == nil {
		s.failErr = err
	}
	s.failMu.Unlock()
	s.halted.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ln := range s.listeners {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
}

// failure returns the error that halted the server.
func (s *Server) failure() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	if s.failErr == nil {
		return ErrServerHalted
	}
	return fmt.Errorf("%w: %v", ErrServerHalted, s.failErr)
}

// AttachShards recovers N shard devices concurrently — errgroup-style
// fan-out without the dependency — via pool.AttachRepair, so a K-shard
// restart pays one shard's recovery latency, not the sum. Each shard's
// outcome is independent: a recovery that fails, or crashes (a power
// cut mid-recovery on that device, surfacing as a panic), yields a nil
// pool and an error at that index while every sibling recovers
// normally. Feed the result straight to NewSharded, which serves the
// survivors and fences the casualties.
func AttachShards(devs []*pmem.Device) ([]*pool.Pool, []error) {
	pools := make([]*pool.Pool, len(devs))
	errs := make([]error, len(devs))
	var wg sync.WaitGroup
	for i, dev := range devs {
		wg.Add(1)
		go func(i int, dev *pmem.Device) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pools[i] = nil
					errs[i] = fmt.Errorf("shard %d: recovery crashed: %v", i, r)
				}
			}()
			p, err := pool.AttachRepair(dev)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			pools[i] = p
		}(i, dev)
	}
	wg.Wait()
	return pools, errs
}

// ShardPaths derives each shard's pool file from the configured base
// path: the base itself for one shard (so existing single-pool
// deployments keep their file), "<base>.<i>" for more.
func ShardPaths(base string, n int) []string {
	if n <= 1 {
		return []string{base}
	}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s.%d", base, i)
	}
	return paths
}

// OpenShards opens (recovering and repairing) or creates one pool per
// path, all concurrently — the corundum-server startup path, sharded.
// Existing files go through pool.OpenRepair: a cleanly recoverable
// image opens as usual, a media-damaged one is repaired where mirrors
// and checksums allow and otherwise opens degraded. Missing files are
// created with cfg. As with AttachShards, each shard fails alone.
func OpenShards(paths []string, cfg pool.Config) ([]*pool.Pool, []error) {
	pools := make([]*pool.Pool, len(paths))
	errs := make([]error, len(paths))
	var wg sync.WaitGroup
	for i, path := range paths {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pools[i] = nil
					errs[i] = fmt.Errorf("shard %d: open crashed: %v", i, r)
				}
			}()
			var (
				p   *pool.Pool
				err error
			)
			if _, statErr := os.Stat(path); statErr == nil {
				p, err = pool.OpenRepair(path, cfg.Mem)
			} else {
				p, err = pool.Create(path, cfg)
			}
			if err != nil {
				errs[i] = fmt.Errorf("shard %d (%s): %w", i, path, err)
				return
			}
			pools[i] = p
		}(i, path)
	}
	wg.Wait()
	return pools, errs
}
