// Package explore implements exhaustive crash-point exploration for
// Corundum pools: where the torture package samples random crash points,
// explore enumerates EVERY device operation a deterministic workload
// issues, cuts power there, recovers, and verifies both the
// linearizability contract (the recovered state is the model after k or
// k+1 completed steps, where step k+1 was in flight) and the structural
// invariants (allocator consistency, pool fsck, workload shape). It then
// recursively injects crashes DURING recovery itself, to a configurable
// depth, because recovery code paths are exactly as obligated to be
// crash-atomic as forward execution (paper §5: "power failures may occur
// at any time, including during recovery").
//
// Exhaustiveness is affordable because of durable-state pruning: the
// durable image only changes at fences, so every crash point between two
// fences yields the same surviving image, and recovery outcome is a pure
// function of that image. Each unique image is recovered and verified
// once, with the most nested recovery cuts any path reaches it with;
// repeats are counted as pruned. The pruning is sound because a
// completed (acked) step's commit record is durable by definition, so a
// given durable image can only ever be paired with one acknowledged step
// count consistent with its recovery outcome.
package explore

import (
	"fmt"
	"sync/atomic"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/obs"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// Config parameterizes one exploration run.
type Config struct {
	// Workload selects the structure under test: "kvstore" (alias
	// "hashmap"), "bst", or "btree"; "allocheavy" and "kvgrow" run the
	// kvstore under the allocator-churn and directory-growth scripts.
	Workload string
	// Steps is the number of script mutations (default 8). Total crash
	// points grow roughly linearly with Steps.
	Steps int
	// Depth is how many nested crashes may be injected during recovery on
	// top of the initial workload crash (default 2; pass a negative value
	// for none — every crash recovers uninterrupted).
	Depth int
	// EvictionSeeds additionally explores each crash point with
	// CrashWithEviction under seeds 1..EvictionSeeds, modelling dirty
	// cache lines that happened to persist. Zero disables (default).
	EvictionSeeds int
	// Workers shards top-level crash points across this many goroutines,
	// each with its own device (default GOMAXPROCS, capped at 8).
	Workers int
	// PoolSize is the pool footprint (default 4 MiB).
	PoolSize int
	// MaxViolations stops the run after this many failures (default 8).
	MaxViolations int
	// AttachFn reopens a pool over a crashed device image: it is the
	// script's reboot. Defaults to pool.Attach; tests substitute a wrapper
	// to prove the explorer catches recovery bugs.
	AttachFn func(dev *pmem.Device) (*pool.Pool, error)
	// Registry, when set, receives live explore_* counters.
	Registry *obs.Registry
	// Stats, when set, is updated live (for progress display); otherwise
	// Run allocates one internally. Read with atomic loads.
	Stats *Stats
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
	// SlabRefill and SlabCap, when either is non-zero, retune every
	// arena's slab cache (pool.SetSlabParams) after each attach, so the
	// tuning holds across the pristine build, the census, and every
	// replay. Tiny values (1 or 2) force refill, claim, park, and spill
	// batches INSIDE the explored crash window on short scripts, which is
	// how the allocator campaign reaches the slab layer's crash paths
	// without thousand-op scripts. SlabRefill < 0 disables the cache
	// entirely (the pre-slab ablation). Zero/zero keeps pool defaults.
	SlabRefill int
	SlabCap    int
}

func (c Config) withDefaults() Config {
	if c.Workload == "" {
		c.Workload = "kvstore"
	}
	if c.Steps <= 0 {
		c.Steps = 8
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 4 << 20
	}
	if c.AttachFn == nil {
		c.AttachFn = pool.Attach
	}
	return c
}

// Stats are live exploration counters, safe for concurrent reads.
type Stats struct {
	// CrashPoints counts top-level (workload) crash points processed.
	CrashPoints atomic.Uint64
	// Explored counts terminal states recovered and verified.
	Explored atomic.Uint64
	// Pruned counts crash points whose durable image was already seen.
	Pruned atomic.Uint64
	// RecoveryCrashes counts crashes injected during recovery.
	RecoveryCrashes atomic.Uint64
	// Evictions counts eviction-variant crash replays.
	Evictions atomic.Uint64
	// Violations counts verification failures.
	Violations atomic.Uint64
	// TotalOps is the workload's op count (set once census completes).
	TotalOps atomic.Uint64
}

// Violation is one verification failure, with enough context to replay it
// deterministically: restore the pristine image, arm a cut at the crash
// point, then arm each trail entry during successive recoveries.
type Violation struct {
	// CrashPoint is the workload-relative op index of the initial cut.
	CrashPoint uint64
	// Trail holds recovery-relative op indices of nested cuts, outermost
	// first; empty means the failure occurred on plain recovery.
	Trail []uint64
	// EvictSeed is the CrashWithEviction seed, or 0 for a plain crash.
	EvictSeed int64
	// Acked is how many steps had completed when power was cut.
	Acked int
	// Err names the violated invariant.
	Err error
	// Flight is the flight-recorder dump of every device at failure time.
	Flight string
}

func (v Violation) String() string {
	s := fmt.Sprintf("crash point %d (acked %d steps)", v.CrashPoint, v.Acked)
	if len(v.Trail) > 0 {
		s += fmt.Sprintf(" recovery trail %v", v.Trail)
	}
	if v.EvictSeed != 0 {
		s += fmt.Sprintf(" evict seed %d", v.EvictSeed)
	}
	return s + ": " + v.Err.Error()
}

// Result summarizes a completed exploration.
type Result struct {
	// TotalOps is the number of enumerated top-level crash points (one
	// per device op of the workload run).
	TotalOps uint64
	// Steps echoes the script length.
	Steps int
	// FenceOps are workload-relative op indices of the script's fences.
	FenceOps []uint64
	// IntervalPoints[i] is how many crash points fall in the i-th fence
	// interval (ops after fence i-1, up to and including fence i; the
	// last entry is the post-final-fence tail if non-empty). Exhaustive
	// enumeration makes every entry positive by construction; the sweep
	// asserts it anyway.
	IntervalPoints []uint64
	// Stats is the final counter snapshot source.
	Stats *Stats
	// Violations holds up to MaxViolations failures, with flight dumps.
	Violations []Violation
}

// Run explores every crash point of the configured workload. It returns
// an error only for infrastructure failures (bad config, setup failure,
// a clean sweep that was not exhaustive); verification failures are
// reported as Result.Violations.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	w, imgs, err := newSteps(cfg)
	if err != nil {
		return nil, err
	}
	s := &sweep[*pool.Pool]{sc: w, pristine: imgs, depth: cfg.Depth, evictions: cfg.EvictionSeeds,
		workers: cfg.Workers, maxViolations: cfg.MaxViolations, log: cfg.Log, registry: cfg.Registry, stats: cfg.Stats}
	if err := s.start(); err != nil {
		return nil, err
	}
	s.log("explore: workload=%s steps=%d ops=%d fences=%d depth=%d workers=%d evict-seeds=%d",
		cfg.Workload, cfg.Steps, s.total, len(s.fences), s.depth, s.workers, s.evictions)
	s.run(s.point)
	viols, err := s.finish()
	if err != nil {
		return nil, err
	}
	return &Result{
		TotalOps:       s.total,
		Steps:          cfg.Steps,
		FenceOps:       s.fences,
		IntervalPoints: intervalPoints(s.total, s.fences),
		Stats:          s.stats,
		Violations:     viols,
	}, nil
}

func registerMetrics(reg *obs.Registry, st *Stats) {
	reg.CounterFunc("explore_crash_points_total", "Top-level crash points processed.", nil, st.CrashPoints.Load)
	reg.CounterFunc("explore_states_explored_total", "Terminal states recovered and verified.", nil, st.Explored.Load)
	reg.CounterFunc("explore_pruned_total", "Crash points pruned by durable-image hash.", nil, st.Pruned.Load)
	reg.CounterFunc("explore_recovery_crashes_total", "Crashes injected during recovery.", nil, st.RecoveryCrashes.Load)
	reg.CounterFunc("explore_evictions_total", "Eviction-variant crash replays.", nil, st.Evictions.Load)
	reg.CounterFunc("explore_violations_total", "Verification failures.", nil, st.Violations.Load)
}

// createPool formats the in-memory, crash-tracked pool every image
// campaign builds its pristine images on.
func createPool(size int) (*pool.Pool, error) {
	return pool.Create("", pool.Config{
		Size:       size,
		Journals:   2,
		JournalCap: 16 << 10,
		Mem:        pmem.Options{TrackCrash: true},
	})
}

// steps is the exhaust script: a structure driven by a deterministic
// sequence of single-transaction steps, held to the linearizability
// contract after every cut.
type steps struct {
	cfg    Config
	def    workloadDef
	ops    []scriptOp
	models []map[uint64]uint64

	// inUse[k] is the heap's in-use byte count after k completed steps of
	// a clean run. Replays are deterministic, so a recovered state that
	// matches models[k] must also sit at exactly inUse[k]: anything higher
	// is a leak, anything lower a double-free or lost allocation.
	inUse []uint64
}

// newSteps formats a pool, runs workload setup, and returns the script
// with the pristine image every replay starts from. Setup is committed
// transactions only, so the durable image is complete: exploration
// starts from "power lost right after setup was acknowledged".
func newSteps(cfg Config) (*steps, [][]byte, error) {
	def, err := workloadFor(cfg.Workload)
	if err != nil {
		return nil, nil, err
	}
	w := &steps{cfg: cfg, def: def}
	w.ops, w.models = scriptFor(cfg.Workload, cfg.Steps)
	p, err := createPool(cfg.PoolSize)
	if err != nil {
		return nil, nil, err
	}
	w.tune(p)
	if _, err := def.setup(corundumeng.Wrap(p)); err != nil {
		return nil, nil, fmt.Errorf("explore: workload setup: %w", err)
	}
	img := p.Device().DurableSnapshot()

	// One clean run records the heap occupancy after every step.
	dev := pmem.New(len(img), pmem.Options{TrackCrash: true})
	dev.RestoreDurable(img)
	var acked int
	if err := w.run(dev, func() {}, &acked, func(p *pool.Pool) { w.inUse = append(w.inUse, p.InUse()) }); err != nil {
		return nil, nil, fmt.Errorf("explore: clean run: %w", err)
	}
	return w, [][]byte{img}, nil
}

// tune applies the configured slab parameters to a freshly attached
// pool. Caches start cold, so the call itself issues no device ops and
// cannot perturb the crash-point universe; only subsequent allocator
// behaviour changes, identically in census and every replay.
func (w *steps) tune(p *pool.Pool) {
	if w.cfg.SlabRefill == 0 && w.cfg.SlabCap == 0 {
		return
	}
	p.SetSlabParams(max(w.cfg.SlabRefill, 0), w.cfg.SlabCap) // refill < 1 disables the cache
}

// run attaches to dev, opens the crash window, and applies the script,
// calling each (when set) after the attach and after every step.
func (w *steps) run(dev *pmem.Device, open func(), acked *int, each func(*pool.Pool)) error {
	p, err := w.cfg.AttachFn(dev)
	if err != nil {
		return fmt.Errorf("clean attach failed: %w", err)
	}
	w.tune(p)
	st, err := w.def.attach(corundumeng.Wrap(p))
	if err != nil {
		return fmt.Errorf("clean attach structure: %w", err)
	}
	open()
	if each == nil {
		each = func(*pool.Pool) {}
	}
	each(p)
	for _, op := range w.ops {
		if err := st.step(op); err != nil {
			return fmt.Errorf("step error before crash point: %w", err)
		}
		*acked++
		each(p)
	}
	return nil
}

func (w *steps) forward(mc *machine, open func(), acked *int) error {
	return w.run(mc.devs[0], open, acked, nil)
}

func (w *steps) reboot(mc *machine) (*pool.Pool, error) { return w.cfg.AttachFn(mc.devs[0]) }

// verify checks every invariant of a recovered pool: allocator
// consistency, workload shape, the linearizability contract — the
// recovered state must equal the model after acked steps (in-flight
// transaction rolled back) or acked+1 (it had committed) — and heap
// conservation.
func (w *steps) verify(p *pool.Pool, acked int) error {
	if err := p.CheckConsistency(); err != nil {
		return fmt.Errorf("allocator inconsistent after recovery: %w", err)
	}
	st, err := w.def.attach(corundumeng.Wrap(p))
	if err != nil {
		return fmt.Errorf("structure attach: %w", err)
	}
	if err := st.check(); err != nil {
		return fmt.Errorf("structure invariant: %w", err)
	}
	matched := acked
	if errA := st.verify(w.models[acked]); errA != nil {
		if acked+1 >= len(w.models) || st.verify(w.models[acked+1]) != nil {
			return fmt.Errorf("state matches neither %d nor %d acked steps: %w", acked, acked+1, errA)
		}
		matched = acked + 1
	}
	// Heap conservation: the models are pairwise distinct, so the matched
	// step count is unique, and a clean run at that step count holds
	// exactly inUse[matched] bytes. A recovered image must agree — this is
	// the allocator's no-leak/no-double-alloc contract, and it is exactly
	// the invariant an unresolved slab claim or a discarded ledger entry
	// would break.
	if got, want := p.InUse(), w.inUse[matched]; got != want {
		return fmt.Errorf("heap in-use %d after recovery, want %d at %d acked steps (leak or double-alloc)", got, want, matched)
	}
	return nil
}
