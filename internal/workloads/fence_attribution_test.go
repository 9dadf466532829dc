package workloads

import (
	"fmt"
	"sync"
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/baselines/engine"
	"corundum/internal/pmem"
)

// TestSetFenceAttribution pins the fence profile of the paper's hot path:
// a single-key SET that overwrites an existing entry costs exactly three
// fences — the undo-log append and the state-word retire (journal scope)
// plus the commit's data fence (user-data scope) — and touches the
// allocator not at all. A regression here means either the commit
// protocol gained fences or the attribution plumbing mislabels them.
func TestSetFenceAttribution(t *testing.T) {
	p, err := corundumeng.Lib{}.Open(engine.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	kv, err := NewKVStore(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(42, 1); err != nil { // insert: entry allocation
		t.Fatal(err)
	}

	dev := p.Device()
	before := dev.Stats()
	if err := kv.Put(42, 2); err != nil { // overwrite: pure undo-log path
		t.Fatal(err)
	}
	after := dev.Stats()

	delta := func(sc pmem.Scope) uint64 {
		return after.ByScope[sc].Fences - before.ByScope[sc].Fences
	}
	if got := delta(pmem.ScopeJournal); got != 2 {
		t.Errorf("journal fences = %d, want 2 (append + state retire)", got)
	}
	if got := delta(pmem.ScopeUserData); got != 1 {
		t.Errorf("user-data fences = %d, want 1 (commit fence)", got)
	}
	if got := delta(pmem.ScopeAllocRedo); got != 0 {
		t.Errorf("alloc-redo fences = %d, want 0 (no allocation on overwrite)", got)
	}
	if got := delta(pmem.ScopeRecovery); got != 0 {
		t.Errorf("recovery fences = %d, want 0", got)
	}
}

// TestInsertFenceBudget pins the slab layer's headline win: a SET that
// ALLOCATES (fresh key, entry node carved for it) costs at most four
// fences once the arena's slab cache is warm — at most three journal
// fences plus the one user-data commit fence, and exactly zero in the
// alloc-redo scope. Before the slab layer the same insert paid a full
// three-fence redo cycle in the allocator on top of its journal work
// (~6 fences total); a regression here reintroduces the fence tax the
// deferred-fence claim protocol exists to kill.
func TestInsertFenceBudget(t *testing.T) {
	p, err := corundumeng.Lib{}.Open(engine.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	kv, err := NewKVStore(p, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Transactions round-robin across the pool's journals and each journal
	// allocates from its own arena, so one warm-up insert per journal
	// (plus slack) leaves every arena's entry-size class stocked: the
	// warm-up misses run refill batches that carve spares.
	const warmup = 24
	for i := 0; i < warmup; i++ {
		if err := kv.Put(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	dev := p.Device()
	const probes = 8 // one per journal: every arena must satisfy the budget
	for i := 0; i < probes; i++ {
		before := dev.Stats()
		if err := kv.Put(uint64(warmup+i), 7); err != nil {
			t.Fatal(err)
		}
		after := dev.Stats()
		delta := func(sc pmem.Scope) uint64 {
			return after.ByScope[sc].Fences - before.ByScope[sc].Fences
		}
		if got := delta(pmem.ScopeAllocRedo); got != 0 {
			t.Errorf("probe %d: alloc-redo fences = %d, want 0 (claim missed a warm cache)", i, got)
		}
		if got := delta(pmem.ScopeJournal); got > 3 {
			t.Errorf("probe %d: journal fences = %d, want <= 3", i, got)
		}
		if got := delta(pmem.ScopeUserData); got != 1 {
			t.Errorf("probe %d: user-data fences = %d, want 1 (commit fence)", i, got)
		}
		total := after.Fences - before.Fences
		if total > 4 {
			t.Errorf("probe %d: total fences = %d, want <= 4", i, total)
		}
	}
}

// TestSetFenceAttributionConcurrent holds the same 2:1 journal:user-data
// ratio in aggregate when many goroutines overwrite disjoint keys —
// attribution must not bleed across concurrent transactions sharing the
// device's per-scope counters. Each goroutine owns a store on the one
// shared pool: a KVStore's mutations must be serialized by its caller.
// Run under -race in CI.
func TestSetFenceAttributionConcurrent(t *testing.T) {
	p, err := corundumeng.Lib{}.Open(engine.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const workers, perWorker = 8, 50
	stores := make([]*KVStore, workers)
	for w := range stores {
		if stores[w], err = NewKVStore(p, 256); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perWorker; i++ {
			if err := stores[w].Put(uint64(w)<<32|uint64(i), 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	dev := p.Device()
	before := dev.Stats()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := stores[w].Put(uint64(w)<<32|uint64(i), uint64(i)+1); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := dev.Stats()

	const ops = workers * perWorker
	if got := after.ByScope[pmem.ScopeJournal].Fences - before.ByScope[pmem.ScopeJournal].Fences; got != 2*ops {
		t.Errorf("journal fences = %d, want %d", got, 2*ops)
	}
	if got := after.ByScope[pmem.ScopeUserData].Fences - before.ByScope[pmem.ScopeUserData].Fences; got != ops {
		t.Errorf("user-data fences = %d, want %d", got, ops)
	}
	if got := after.ByScope[pmem.ScopeAllocRedo].Fences - before.ByScope[pmem.ScopeAllocRedo].Fences; got != 0 {
		t.Errorf("alloc-redo fences = %d, want 0", got)
	}
}
