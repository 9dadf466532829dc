// Package torture runs randomized crash-injection campaigns against a
// live pool: workers execute random transactions while power may be cut
// at a random device operation; after each crash the pool is recovered
// and the persistent state is checked against a volatile model. The
// linearizability contract checked is the standard one for
// failure-atomic transactions: a transaction that returned successfully
// must be fully visible after recovery; a transaction interrupted by the
// crash may be fully visible or fully absent; nothing may ever be torn.
//
// One worker is the serial campaign: one transaction in flight at a time.
// Several workers transact concurrently on the same pool, so the cut
// lands while multiple undo logs are in flight, allocator arenas serve
// different transactions, and recovery walks several non-idle journals.
//
// This is the in-repo counterpart of PM testing tools like Yat and PMTest
// from the paper's related work (§5) — but running against the emulated
// device, so campaigns are deterministic per seed and run in CI.
package torture

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"corundum/internal/containers"
	"corundum/internal/core"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// Tag is the pool tag torture campaigns run in.
type Tag struct{}

// MaxWorkers bounds the campaign's concurrency (the root carries one
// slot of each array per worker).
const MaxWorkers = 16

// Root gives every worker its own sorted map, stack and hash map, at its
// index in each array. Workers share the pool — journals, heap arenas,
// the device — but not data structures, so each worker's model stays
// independently checkable. The arrays pack several workers into each
// cache line on purpose: one worker's commit then flushes a line its
// neighbours are writing, which keeps the shared-line flush path and
// the typed API's plain stores into shared lines inside the campaign.
type Root struct {
	Maps   [MaxWorkers]containers.SortedMap[int64, Tag]
	Stacks [MaxWorkers]containers.Stack[int64, Tag]
	Hashes [MaxWorkers]containers.HashMap[uint64, int64, Tag]
}

// Result summarizes a campaign.
type Result struct {
	Iterations int // transactions attempted
	Crashes    int
	// RolledBack and RolledFwd count interrupted transactions that ended
	// up absent or visible. With one worker every crash interrupts exactly
	// one transaction; with several, one crash may interrupt several.
	RolledBack  int
	RolledFwd   int
	Evictions   int // crashes with adversarial cache eviction
	FinalMapLen int // keys across every worker's maps at the end
}

// model mirrors one worker's structures in volatile memory.
type model struct {
	m     map[uint64]int64 // its Maps entry
	stack []int64
	h     map[uint64]int64 // its Hashes entry
}

func (mo *model) clone() *model {
	c := &model{m: make(map[uint64]int64, len(mo.m)), stack: append([]int64(nil), mo.stack...),
		h: make(map[uint64]int64, len(mo.h))}
	for k, v := range mo.m {
		c.m[k] = v
	}
	for k, v := range mo.h {
		c.h[k] = v
	}
	return c
}

// worker is one goroutine's volatile mirror of its structures.
type worker struct {
	slot      int // index into each Root array
	rng       *rand.Rand
	committed *model // acknowledged state
	pending   *model // including the interrupted transaction
	inDoubt   bool   // this round ended in a mid-transaction cut
	attempted int
	err       error
}

// runRound issues up to quota transactions against the worker's
// structures, stopping at the first cut (every device operation after
// the power cut panics, so an in-flight transaction can never
// half-complete silently).
func (w *worker) runRound(r *Root, quota int) {
	w.inDoubt = false
	for k := 0; k < quota; k++ {
		pending := w.committed.clone()
		w.attempted++
		var err error
		if pmem.Contain(func() {
			err = core.Transaction[Tag](func(j *core.Journal[Tag]) error {
				return randomTx(j, r, w.slot, w.rng, pending)
			})
		}) {
			w.inDoubt, w.pending = true, pending
			return
		}
		if err != nil {
			w.err = fmt.Errorf("transaction error: %w", err)
			return
		}
		w.committed = pending
	}
}

// Campaign runs randomized crash-injection rounds with the given number
// of workers transacting concurrently on one pool (one worker is the
// serial campaign), until at least iterations transactions have been
// attempted. It returns an error on any consistency violation — torn
// state, structural corruption, or a lost acknowledged transaction.
func Campaign(seed int64, iterations, workers int) (*Result, error) {
	if workers < 1 || workers > MaxWorkers {
		return nil, fmt.Errorf("torture: workers must be in [1,%d], got %d", MaxWorkers, workers)
	}
	// Journals >= workers: after the power cut, a transaction's cleanup
	// panics before returning its journal slot, so a worker waiting for a
	// free slot would otherwise wait forever on a dead round.
	cfg := core.Config{Size: 32 << 20, Journals: workers + 2, Mem: pmem.Options{TrackCrash: true}}
	root, err := core.Open[Root, Tag]("", cfg)
	if err != nil {
		return nil, err
	}
	defer core.ClosePool[Tag]()

	rng := rand.New(rand.NewSource(seed))
	res := &Result{}
	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = &worker{slot: i, committed: &model{m: map[uint64]int64{}, h: map[uint64]int64{}}}
		// Build the hash's bucket directory before arming the injector: the
		// directory allocation is one huge transaction that would otherwise
		// absorb nearly every early crash, starving the campaign of
		// steady-state coverage. (Crashes during structure growth still
		// occur via chain allocations.)
		hash := &root.Deref().Hashes[i]
		if err := core.Transaction[Tag](func(j *core.Journal[Tag]) error {
			if err := hash.Put(j, 1, 0); err != nil {
				return err
			}
			_, err := hash.Delete(j, 1)
			return err
		}); err != nil {
			return nil, fmt.Errorf("slot %d init: %w", i, err)
		}
	}

	const quota = 4 // transactions per worker per round
	for res.Iterations < iterations {
		crashAt := uint64(1 + rng.Intn(400*workers))
		evict := rng.Intn(4) == 0
		evictSeed := rng.Int63()
		for _, w := range ws {
			w.rng = rand.New(rand.NewSource(rng.Int63()))
		}

		dev := core.DeviceOf[Tag]()
		var count atomic.Uint64
		var fired atomic.Bool
		dev.SetFaultInjector(func(op pmem.Op) bool {
			if count.Add(1) == crashAt {
				fired.Store(true)
				return true
			}
			return false
		})
		r := root.Deref()
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.runRound(r, quota)
			}(w)
		}
		wg.Wait()
		dev.SetFaultInjector(nil)

		for _, w := range ws {
			res.Iterations += w.attempted
			w.attempted = 0
			if w.err != nil {
				return nil, fmt.Errorf("worker %d: %w", w.slot, w.err)
			}
		}
		if !fired.Load() {
			continue // the round finished before the scheduled power cut
		}
		res.Crashes++

		// Power loss and reboot.
		if evict {
			res.Evictions++
			dev.CrashWithEviction(evictSeed)
		} else {
			dev.Crash()
		}
		if err := core.ClosePool[Tag](); err != nil {
			return nil, err
		}
		p, err := pool.Attach(dev)
		if err != nil {
			return nil, fmt.Errorf("crash %d: recovery failed: %w", res.Crashes, err)
		}
		if err := p.CheckConsistency(); err != nil {
			return nil, fmt.Errorf("crash %d: heap corrupt after recovery: %w", res.Crashes, err)
		}
		if root, err = core.Adopt[Root, Tag](p); err != nil {
			return nil, err
		}

		r = root.Deref()
		for _, w := range ws {
			preErr := verify(r, w.slot, w.committed)
			switch {
			case preErr == nil:
				if w.inDoubt {
					res.RolledBack++
				}
			case w.inDoubt && verify(r, w.slot, w.pending) == nil:
				res.RolledFwd++
				w.committed = w.pending
			default:
				return nil, fmt.Errorf("crash %d (crashAt=%d evict=%v) worker %d: state is neither pre- nor post-transaction (inDoubt=%v): %v",
					res.Crashes, crashAt, evict, w.slot, w.inDoubt, preErr)
			}
		}
	}

	// Final structural and content check of every worker's structures.
	r := root.Deref()
	for _, w := range ws {
		if err := r.Maps[w.slot].CheckInvariants(); err != nil {
			return nil, fmt.Errorf("final check, worker %d: %w", w.slot, err)
		}
		if err := verify(r, w.slot, w.committed); err != nil {
			return nil, fmt.Errorf("final check, worker %d: %w", w.slot, err)
		}
		res.FinalMapLen += len(w.committed.m) + len(w.committed.h)
	}
	return res, nil
}

// randomTx applies 1-6 random operations to worker i's structures
// inside one transaction, keeping the pending model in lockstep.
func randomTx(j *core.Journal[Tag], r *Root, i int, rng *rand.Rand, pending *model) error {
	m, stack, hash := &r.Maps[i], &r.Stacks[i], &r.Hashes[i]
	ops := 1 + rng.Intn(6)
	for k := 0; k < ops; k++ {
		switch rng.Intn(7) {
		case 0, 1: // sorted-map put
			key := uint64(1 + rng.Intn(200))
			val := rng.Int63()
			if err := m.Put(j, key, val); err != nil {
				return err
			}
			pending.m[key] = val
		case 2: // sorted-map delete
			key := uint64(1 + rng.Intn(200))
			removed, err := m.Delete(j, key)
			if err != nil {
				return err
			}
			if _, in := pending.m[key]; removed != in {
				return fmt.Errorf("map delete(%d) disagreed with model", key)
			}
			delete(pending.m, key)
		case 3: // stack push
			v := rng.Int63()
			if err := stack.Push(j, v); err != nil {
				return err
			}
			pending.stack = append(pending.stack, v)
		case 4: // stack pop
			v, ok, err := stack.Pop(j)
			if err != nil {
				return err
			}
			if ok != (len(pending.stack) > 0) {
				return fmt.Errorf("pop disagreed with model")
			}
			if ok {
				want := pending.stack[len(pending.stack)-1]
				pending.stack = pending.stack[:len(pending.stack)-1]
				if v != want {
					return fmt.Errorf("pop %d want %d", v, want)
				}
			}
		case 5: // hash put
			key := uint64(1 + rng.Intn(64))
			val := rng.Int63()
			if err := hash.Put(j, key, val); err != nil {
				return err
			}
			pending.h[key] = val
		case 6: // hash delete
			key := uint64(1 + rng.Intn(64))
			removed, err := hash.Delete(j, key)
			if err != nil {
				return err
			}
			if _, in := pending.h[key]; removed != in {
				return fmt.Errorf("hash delete(%d) disagreed with model", key)
			}
			delete(pending.h, key)
		}
	}
	return nil
}

// verify compares worker i's persistent structures to a model.
func verify(r *Root, i int, mo *model) error {
	if err := verifyMap("map", r.Maps[i].Len(), r.Maps[i].Scan, mo.m); err != nil {
		return err
	}
	if err := verifyMap("hash", r.Hashes[i].Len(), r.Hashes[i].Range, mo.h); err != nil {
		return err
	}
	stack := &r.Stacks[i]
	if got := stack.Len(); got != len(mo.stack) {
		return fmt.Errorf("stack len %d, model %d", got, len(mo.stack))
	}
	var bad error
	k := len(mo.stack) - 1
	stack.Range(func(v *int64) bool {
		if *v != mo.stack[k] {
			bad = fmt.Errorf("stack[%d] = %d, model %d", k, *v, mo.stack[k])
			return false
		}
		k--
		return true
	})
	return bad
}

// verifyMap compares one persistent map, given its length and walk, to
// its model.
func verifyMap(name string, n int, walk func(func(uint64, *int64) bool), model map[uint64]int64) error {
	if n != len(model) {
		return fmt.Errorf("%s len %d, model %d", name, n, len(model))
	}
	var bad error
	seen := 0
	walk(func(k uint64, v *int64) bool {
		if want, ok := model[k]; !ok || want != *v {
			bad = fmt.Errorf("%s key %d = %d, model %d (present=%v)", name, k, *v, want, ok)
			return false
		}
		seen++
		return true
	})
	if bad == nil && seen != len(model) {
		bad = fmt.Errorf("%s walk saw %d keys, model %d", name, seen, len(model))
	}
	return bad
}
